package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// model is the driver's own copy of the graph a served artifact should
// describe. It is kept apart from the program's graph code, so that the
// residual check of every solve tests the artifact against the graph the
// client meant, edits included.
type model struct {
	n, side int
	w       map[[2]int]float64
	// shortcuts lists the edges whose endpoints are not grid neighbours,
	// in a stable order so edits drawn from a seed are reproducible.
	shortcuts [][2]int
	// shift is the diagonal regularization of the artifact currently
	// served for this graph: lap.Shift's 1e-6 × mean weighted degree of
	// the graph the artifact's pencil was assembled from.
	shift float64

	flat []wedge // edge list cache, rebuilt after each edit
}

type wedge struct {
	u, v int
	w    float64
}

func newModel(g *graph.Graph, side int) *model {
	m := &model{n: g.N, side: side, w: make(map[[2]int]float64, g.M())}
	for _, e := range g.Edges {
		k := [2]int{e.U, e.V}
		m.w[k] = e.W
		if !m.gridPair(k) {
			m.shortcuts = append(m.shortcuts, k)
		}
	}
	m.shift = m.defaultShift()
	return m
}

func (m *model) gridPair(k [2]int) bool {
	du := absInt(k[0]%m.side - k[1]%m.side)
	dv := absInt(k[0]/m.side - k[1]/m.side)
	return du+dv == 1
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// defaultShift is 1e-6 × the mean weighted degree, computed here rather
// than by the program's lap.Shift.
func (m *model) defaultShift() float64 {
	var t float64
	for _, e := range m.edges() {
		t += 2 * e.w
	}
	return 1e-6 * t / float64(m.n)
}

// edges returns the edge list sorted by endpoints.
func (m *model) edges() []wedge {
	if m.flat == nil {
		m.flat = make([]wedge, 0, len(m.w))
		for k, w := range m.w {
			m.flat = append(m.flat, wedge{k[0], k[1], w})
		}
		sort.Slice(m.flat, func(i, j int) bool {
			a, b := m.flat[i], m.flat[j]
			return a.u < b.u || (a.u == b.u && a.v < b.v)
		})
	}
	return m.flat
}

func (m *model) graph() *graph.Graph {
	es := m.edges()
	out := make([]graph.Edge, len(es))
	for i, e := range es {
		out[i] = graph.Edge{U: e.u, V: e.v, W: e.w}
	}
	return graph.MustNew(m.n, out)
}

// apply records an edit the server has accepted.
func (m *model) apply(d graph.Delta) {
	for _, r := range d.Remove {
		k := normKey(r[0], r[1])
		delete(m.w, k)
		for i, s := range m.shortcuts {
			if s == k {
				m.shortcuts = append(m.shortcuts[:i], m.shortcuts[i+1:]...)
				break
			}
		}
	}
	for _, e := range d.Set {
		k := normKey(e.U, e.V)
		if _, ok := m.w[k]; !ok && !m.gridPair(k) {
			m.shortcuts = append(m.shortcuts, k)
		}
		m.w[k] = e.W
	}
	m.flat = nil
}

func normKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// windowEdges lists the existing edges with both endpoints in the
// 10×10 vertex window whose corner is (x0, y0), in a fixed order.
func (m *model) windowEdges(x0, y0 int) [][2]int {
	const win, reach = 10, 3
	var out [][2]int
	for y := y0; y < y0+win; y++ {
		for x := x0; x < x0+win; x++ {
			u := y*m.side + x
			for dy := 0; dy <= reach; dy++ {
				for dx := -reach; dx <= reach; dx++ {
					if dy == 0 && dx <= 0 {
						continue
					}
					x2, y2 := x+dx, y+dy
					if x2 < x0 || x2 >= x0+win || y2 >= y0+win {
						continue
					}
					k := normKey(u, y2*m.side+x2)
					if _, ok := m.w[k]; ok {
						out = append(out, k)
					}
				}
			}
		}
	}
	return out
}

// reweight scales every edge of a random 10×10 window by its own factor
// drawn from [0.5, 2).
func (m *model) reweight(rng *rand.Rand) graph.Delta {
	x0, y0 := rng.Intn(m.side-10), rng.Intn(m.side-10)
	var d graph.Delta
	for _, k := range m.windowEdges(x0, y0) {
		d.Set = append(d.Set, graph.Edge{U: k[0], V: k[1], W: m.w[k] * (0.5 + 1.5*rng.Float64())})
	}
	return d
}

// toggle doubles (on) or halves (off) every edge weight of the fixed
// window at the mesh centre. Both are exact in floating point, so
// toggling back restores the original graph bit for bit.
func (m *model) toggle(on bool) graph.Delta {
	c := m.side/2 - 5
	var d graph.Delta
	for _, k := range m.windowEdges(c, c) {
		w := m.w[k] / 2
		if on {
			w = m.w[k] * 2
		}
		d.Set = append(d.Set, graph.Edge{U: k[0], V: k[1], W: w})
	}
	return d
}

// removeShortcut drops one random shortcut edge. Grid edges are never
// removed, so the graph stays connected.
func (m *model) removeShortcut(rng *rand.Rand) graph.Delta {
	k := m.shortcuts[rng.Intn(len(m.shortcuts))]
	return graph.Delta{Remove: [][2]int{k}}
}

// addShortcut adds one new short-range shortcut like gen.CircuitGrid's.
// One edge per edit keeps the server's edge order independent of how it
// iterates a pending delta.
func (m *model) addShortcut(rng *rand.Rand) graph.Delta {
	for {
		x, y := rng.Intn(m.side), rng.Intn(m.side)
		x2, y2 := x+rng.Intn(7)-3, y+rng.Intn(7)-3
		if x2 < 0 || x2 >= m.side || y2 < 0 || y2 >= m.side {
			continue
		}
		k := normKey(y*m.side+x, y2*m.side+x2)
		if _, ok := m.w[k]; ok || k[0] == k[1] || m.gridPair(k) {
			continue
		}
		return graph.Delta{Set: []graph.Edge{{U: k[0], V: k[1], W: 0.1 * (0.5 + rng.Float64())}}}
	}
}

// rhs draws a right-hand side with zero mean: the solvable part of a
// Laplacian system, so the residual does not hinge on the tiny
// regularization shift.
func rhs(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	var s float64
	for i := range b {
		b[i] = rng.NormFloat64()
		s += b[i]
	}
	s /= float64(n)
	for i := range b {
		b[i] -= s
	}
	return b
}

// relResidual returns ‖b − (L + shift·I) x‖ / ‖b‖ for the model graph.
func (m *model) relResidual(b, x []float64) float64 {
	r := make([]float64, m.n)
	for i := range r {
		r[i] = b[i] - m.shift*x[i]
	}
	for _, e := range m.edges() {
		f := e.w * (x[e.u] - x[e.v])
		r[e.u] -= f
		r[e.v] += f
	}
	return norm(r) / norm(b)
}

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// checkSparsifier verifies that edges form a connected spanning subgraph
// of the model graph with the original weights.
func (m *model) checkSparsifier(edges [][3]float64) error {
	if len(edges) < m.n-1 {
		return fmt.Errorf("sparsifier has %d edges, a spanning tree of %d vertices needs %d", len(edges), m.n, m.n-1)
	}
	parent := make([]int, m.n)
	for i := range parent {
		parent[i] = i
	}
	find := func(a int) int {
		for parent[a] != a {
			parent[a] = parent[parent[a]]
			a = parent[a]
		}
		return a
	}
	comps := m.n
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := int(e[0]), int(e[1])
		if float64(u) != e[0] || float64(v) != e[1] || u < 0 || v >= m.n || u >= v {
			return fmt.Errorf("sparsifier edge %v is not a normalized edge of %d vertices", e, m.n)
		}
		k := [2]int{u, v}
		w, ok := m.w[k]
		if !ok {
			return fmt.Errorf("sparsifier edge (%d,%d) is not in the graph", u, v)
		}
		if w != e[2] {
			return fmt.Errorf("sparsifier edge (%d,%d) has weight %g, graph has %g", u, v, e[2], w)
		}
		if seen[k] {
			return fmt.Errorf("sparsifier repeats edge (%d,%d)", u, v)
		}
		seen[k] = true
		if a, b := find(u), find(v); a != b {
			parent[a] = b
			comps--
		}
	}
	if comps != 1 {
		return fmt.Errorf("sparsifier has %d components", comps)
	}
	return nil
}

// containsTree verifies that every edge of tree is in the sparsifier.
func containsTree(tree []graph.Edge, edges [][3]float64) error {
	in := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		in[[2]int{int(e[0]), int(e[1])}] = true
	}
	for _, e := range tree {
		if !in[normKey(e.U, e.V)] {
			return fmt.Errorf("spanning tree edge (%d,%d) missing from the sparsifier", e.U, e.V)
		}
	}
	return nil
}

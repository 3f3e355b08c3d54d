package order

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// sliceAdj adapts an adjacency-list graph for tests.
type sliceAdj [][]int

func (s sliceAdj) Len() int { return len(s) }
func (s sliceAdj) Visit(u int, fn func(v int)) {
	for _, v := range s[u] {
		fn(v)
	}
}

func grid(nx, ny int) sliceAdj {
	adj := make(sliceAdj, nx*ny)
	id := func(x, y int) int { return y*nx + x }
	link := func(a, b int) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				link(id(x, y), id(x+1, y))
			}
			if y+1 < ny {
				link(id(x, y), id(x, y+1))
			}
		}
	}
	return adj
}

func path(n int) sliceAdj {
	adj := make(sliceAdj, n)
	for i := 0; i+1 < n; i++ {
		adj[i] = append(adj[i], i+1)
		adj[i+1] = append(adj[i+1], i)
	}
	return adj
}

func randomAdj(n int, m int, seed int64) sliceAdj {
	rng := rand.New(rand.NewSource(seed))
	adj := make(sliceAdj, n)
	for k := 0; k < m; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	return adj
}

// methods are the orderings under test, by name.
var methods = []struct {
	name    string
	compute func(Adjacency) []int
}{{"mindeg", ComputeMinDegree}, {"nd", ComputeND}, {"auto", Compute}}

func TestAllMethodsProduceValidPermutations(t *testing.T) {
	g := grid(13, 17)
	for _, m := range methods {
		perm := m.compute(g)
		if !Validate(perm, g.Len()) {
			t.Errorf("%s: invalid permutation", m.name)
		}
	}
}

func TestValidPermutationsOnRandomGraphsQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(seed%97+97)%97
		g := randomAdj(n, 3*n, seed)
		for _, m := range methods {
			if !Validate(m.compute(g), n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMinDegreeEliminatesPathLeavesFirst(t *testing.T) {
	// On a path the minimum-degree order must start with an endpoint
	// (degree 1) and never pick an interior vertex while an endpoint-like
	// leaf exists; the resulting elimination has zero fill, which shows up
	// as every eliminated vertex having at most 2 alive neighbors. We just
	// check the first vertex is an endpoint.
	perm := ComputeMinDegree(path(50))
	if first := perm[0]; first != 0 && first != 49 {
		t.Errorf("first eliminated vertex %d is not a path endpoint", first)
	}
	if !Validate(perm, 50) {
		t.Error("invalid permutation")
	}
}

func TestNDHandlesDisconnectedGraphs(t *testing.T) {
	adj := make(sliceAdj, 10) // two components: a path and isolated vertices
	for i := 0; i < 4; i++ {
		adj[i] = append(adj[i], i+1)
		adj[i+1] = append(adj[i+1], i)
	}
	perm := ComputeND(adj)
	if !Validate(perm, 10) {
		t.Errorf("ND on disconnected graph invalid: %v", perm)
	}
}

func TestNDSeparatorLast(t *testing.T) {
	// On a long path, ND should place some middle vertex last (separator
	// of the top-level split is ordered after both halves).
	n := 2000
	perm := ComputeND(path(n))
	if !Validate(perm, n) {
		t.Fatal("invalid permutation")
	}
	last := perm[n-1]
	if last < n/8 || last > 7*n/8 {
		t.Errorf("last-ordered vertex %d is not in the middle of the path", last)
	}
}

func TestAutoPicksSomethingValidForLargeGraph(t *testing.T) {
	g := grid(160, 160) // 25.6k vertices, mesh-like → ND path
	perm := Compute(g)
	if !Validate(perm, g.Len()) {
		t.Error("Auto ordering invalid on large grid")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := sliceAdj{}
	for _, m := range methods {
		if perm := m.compute(g); len(perm) != 0 {
			t.Errorf("%s: expected empty permutation", m.name)
		}
	}
}

func TestSingleVertex(t *testing.T) {
	g := sliceAdj{nil}
	for _, m := range methods {
		perm := m.compute(g)
		if len(perm) != 1 || perm[0] != 0 {
			t.Errorf("%s: got %v", m.name, perm)
		}
	}
}

func TestValidateRejectsBadPerms(t *testing.T) {
	if Validate([]int{0, 0}, 2) {
		t.Error("duplicate accepted")
	}
	if Validate([]int{0, 2}, 2) {
		t.Error("out-of-range accepted")
	}
	if Validate([]int{0}, 2) {
		t.Error("short permutation accepted")
	}
}

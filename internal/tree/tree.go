// Package tree builds and queries spanning trees of weighted graphs: the
// maximum-weight spanning tree, and the maximum effective-weight spanning
// tree (MEWST) of feGRASS [13] that Algorithm 2 uses as its low-stretch
// initial subgraph. A rooted representation (parent, depth, root
// resistance) supports batch effective-resistance queries through the
// offline LCA algorithm and the tree-path walks the truncated
// trace-reduction needs.
package tree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/dsu"
	"repro/internal/graph"
	"repro/internal/lca"
)

// Tree is a rooted spanning tree of G.
type Tree struct {
	G       *graph.Graph
	EdgeIdx []int  // indices into G.Edges forming the tree (n−1 edges)
	InTree  []bool // per-G-edge membership flag

	Root       int
	Parent     []int     // Parent[Root] = −1
	ParentEdge []int     // G edge index to parent; −1 at the root
	Depth      []int     // hops from root
	RootRes    []float64 // Σ 1/w along the root path
}

// MaxWeight returns the maximum-weight spanning tree (Kruskal on
// descending weight). The graph must be connected.
func MaxWeight(g *graph.Graph) (*Tree, error) {
	key := make([]float64, g.M())
	for i, e := range g.Edges {
		key[i] = e.W
	}
	return fromKey(g, key)
}

// MEWST returns the maximum effective-weight spanning tree in the spirit of
// feGRASS [13]. The effective weight combines the edge weight with the
// weighted degrees of its endpoints so that edges in well-connected regions
// win ties:
//
//	effw(u,v) = w_uv · log(1 + max(dw(u), dw(v)))
//
// where dw is the weighted vertex degree. (The exact feGRASS formula is not
// reproduced verbatim; this variant preserves its intent — prefer heavy
// edges incident to heavy regions — and is documented in DESIGN.md §4.)
func MEWST(g *graph.Graph) (*Tree, error) {
	dw := make([]float64, g.N)
	for u := 0; u < g.N; u++ {
		dw[u] = g.WeightedDegree(u)
	}
	key := make([]float64, g.M())
	for i, e := range g.Edges {
		m := dw[e.U]
		if dw[e.V] > m {
			m = dw[e.V]
		}
		key[i] = e.W * math.Log1p(m)
	}
	return fromKey(g, key)
}

// byDescendingKey returns the edge indices ordered by descending key,
// ties broken by ascending index. The comparator is negative exactly when
// key[a] > key[b], or the keys are equal and a < b; cmp.Compare would
// order NaN keys differently.
func byDescendingKey(key []float64) []int {
	idx := make([]int, len(key))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if ka, kb := key[a], key[b]; ka != kb {
			if ka > kb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b) // deterministic tie-break
	})
	return idx
}

// fromKey runs Kruskal picking edges by descending key and roots the tree.
func fromKey(g *graph.Graph, key []float64) (*Tree, error) {
	idx := byDescendingKey(key)
	d := dsu.New(g.N)
	treeEdges := make([]int, 0, g.N-1)
	inTree := make([]bool, g.M())
	for _, e := range idx {
		ed := g.Edges[e]
		if d.Union(ed.U, ed.V) {
			treeEdges = append(treeEdges, e)
			inTree[e] = true
			if len(treeEdges) == g.N-1 {
				break
			}
		}
	}
	if len(treeEdges) != g.N-1 && g.N > 0 {
		return nil, fmt.Errorf("tree: graph is disconnected (%d components)", d.Count())
	}
	t := &Tree{G: g, EdgeIdx: treeEdges, InTree: inTree}
	t.root(0)
	return t, nil
}

// root (re)builds the rooted arrays by BFS over tree edges from the given
// root vertex.
func (t *Tree) root(root int) {
	g := t.G
	n := g.N
	t.Root = root
	t.Parent = make([]int, n)
	t.ParentEdge = make([]int, n)
	t.Depth = make([]int, n)
	t.RootRes = make([]float64, n)
	for i := range t.Parent {
		t.Parent[i] = -2 // unvisited sentinel
		t.ParentEdge[i] = -1
	}
	t.Parent[root] = -1
	queue := make([]int, 0, n)
	queue = append(queue, root)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for p := g.AdjStart[u]; p < g.AdjStart[u+1]; p++ {
			e := g.AdjEdge[p]
			if !t.InTree[e] {
				continue
			}
			v := g.AdjTarget[p]
			if t.Parent[v] != -2 {
				continue
			}
			t.Parent[v] = u
			t.ParentEdge[v] = e
			t.Depth[v] = t.Depth[u] + 1
			t.RootRes[v] = t.RootRes[u] + 1/g.Edges[e].W
			queue = append(queue, v)
		}
	}
}

// LCAs answers lowest-common-ancestor queries for the vertex pairs, using
// the offline Gabow–Tarjan algorithm (one linear pass for all queries).
func (t *Tree) LCAs(pairs [][2]int) []int {
	qs := make([]lca.Query, len(pairs))
	for i, pq := range pairs {
		qs[i] = lca.Query{U: pq[0], V: pq[1]}
	}
	return lca.Offline(lca.Tree{Parent: t.Parent, Root: t.Root}, qs)
}

// Resistance returns R_T(p,q) given the LCA of p and q:
// RootRes[p] + RootRes[q] − 2·RootRes[lca].
func (t *Tree) Resistance(p, q, lcaNode int) float64 {
	return t.RootRes[p] + t.RootRes[q] - 2*t.RootRes[lcaNode]
}

// Resistances batch-computes tree effective resistances for vertex pairs.
func (t *Tree) Resistances(pairs [][2]int) []float64 {
	ls := t.LCAs(pairs)
	rs := make([]float64, len(pairs))
	for i, pq := range pairs {
		rs[i] = t.Resistance(pq[0], pq[1], ls[i])
	}
	return rs
}

// PathUp walks from v toward the root for at most steps hops (or until
// stop is reached) and calls fn(node, parentEdge) for every edge crossed.
// It returns the last node reached.
func (t *Tree) PathUp(v, stop, steps int, fn func(child, edgeIdx int)) int {
	for s := 0; s < steps && v != stop && t.Parent[v] >= 0; s++ {
		fn(v, t.ParentEdge[v])
		v = t.Parent[v]
	}
	return v
}

// PathEdges returns the G-edge indices on the unique tree path p→q, given
// their LCA. The edges are ordered from p up to the LCA, then from the LCA
// down to q.
func (t *Tree) PathEdges(p, q, lcaNode int) []int {
	var up []int
	for v := p; v != lcaNode; v = t.Parent[v] {
		up = append(up, t.ParentEdge[v])
	}
	var down []int
	for v := q; v != lcaNode; v = t.Parent[v] {
		down = append(down, t.ParentEdge[v])
	}
	for i, j := 0, len(down)-1; i < j; i, j = i+1, j-1 {
		down[i], down[j] = down[j], down[i]
	}
	return append(up, down...)
}

// OffTreeEdges returns the indices of G edges not in the tree.
func (t *Tree) OffTreeEdges() []int {
	out := make([]int, 0, t.G.M()-len(t.EdgeIdx))
	for i := range t.G.Edges {
		if !t.InTree[i] {
			out = append(out, i)
		}
	}
	return out
}

// TotalStretch returns Σ_e w_e · R_T(e) over off-tree edges — the classic
// quality measure of a low-stretch spanning tree (lower is better).
func (t *Tree) TotalStretch() float64 {
	off := t.OffTreeEdges()
	pairs := make([][2]int, len(off))
	for i, e := range off {
		pairs[i] = [2]int{t.G.Edges[e].U, t.G.Edges[e].V}
	}
	rs := t.Resistances(pairs)
	var s float64
	for i, e := range off {
		s += t.G.Edges[e].W * rs[i]
	}
	return s
}

// Package graph provides the weighted undirected graph representation used
// throughout the sparsifier stack: an edge list plus CSR-style adjacency
// arrays, breadth-first search with a layer cap (the paper's β-layer
// neighborhoods), connectivity checks, and degree queries.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Edge is one weighted undirected edge. U < V is not required but builders
// normalize self-loop-free, deduplicated edges.
type Edge struct {
	U, V int
	W    float64
}

// Graph is a weighted undirected graph over vertices 0..N-1.
//
// Edges holds each undirected edge once. The adjacency structure indexes
// both directions: for vertex u, the incident half-edges are
// AdjTarget[AdjStart[u]:AdjStart[u+1]] with parallel AdjEdge giving the
// index into Edges.
type Graph struct {
	N     int
	Edges []Edge

	AdjStart  []int // length N+1
	AdjTarget []int // length 2*len(Edges)
	AdjEdge   []int // length 2*len(Edges); index into Edges
}

// dedupSortThreshold is the input size above which New switches from the
// map-based duplicate merge to the sort-based merge. Per-edge map inserts
// are an allocation hot spot when building million-edge graphs — and the
// sharded pipeline rebuilds a local graph per cluster, so every shard
// build used to pay it; sorting a flat slice touches no per-edge heap
// state. Below the threshold the map wins on constant factors and
// preserves first-occurrence edge order, which tests rely on.
const dedupSortThreshold = 4096

// New builds a graph from an edge list. Self loops are rejected; duplicate
// edges are merged by summing weights; weights failing ValidWeight are
// rejected.
// For inputs above dedupSortThreshold edges, the merged edge list is in
// sorted (U, V) order rather than first-occurrence order; callers must
// not rely on either ordering.
func New(n int, edges []Edge) (*Graph, error) {
	norm, err := normalize(n, edges)
	if err != nil {
		return nil, err
	}
	var merged []Edge
	if len(norm) > dedupSortThreshold {
		merged = mergeSorted(norm)
	} else {
		merged = mergeMap(norm)
	}
	g := &Graph{N: n, Edges: merged}
	g.buildAdjacency()
	return g, nil
}

// ValidWeight reports whether w is a usable edge weight: positive and
// finite (NaN and ±Inf fail). New, Delta.ApplyPatch and the engine's
// stream validation all apply this one rule.
func ValidWeight(w float64) bool { return w > 0 && !math.IsInf(w, 1) }

// normalize validates every edge and returns a copy with U ≤ V.
func normalize(n int, edges []Edge) ([]Edge, error) {
	norm := make([]Edge, len(edges))
	for i, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self loop at vertex %d", e.U)
		}
		if !ValidWeight(e.W) {
			return nil, fmt.Errorf("graph: edge (%d,%d) has invalid weight %g", e.U, e.V, e.W)
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		norm[i] = e
	}
	return norm, nil
}

// mergeMap deduplicates normalized edges with a hash map, preserving
// first-occurrence order.
func mergeMap(norm []Edge) []Edge {
	seen := make(map[[2]int]int, len(norm))
	merged := norm[:0]
	for _, e := range norm {
		key := [2]int{e.U, e.V}
		if idx, ok := seen[key]; ok {
			merged[idx].W += e.W
			continue
		}
		seen[key] = len(merged)
		merged = append(merged, e)
	}
	return merged
}

// mergeSorted deduplicates normalized edges by sorting on (U, V) and
// summing adjacent runs in place — no per-edge map allocations.
func mergeSorted(norm []Edge) []Edge {
	slices.SortFunc(norm, func(a, b Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	merged := norm[:0]
	for _, e := range norm {
		if k := len(merged); k > 0 && merged[k-1].U == e.U && merged[k-1].V == e.V {
			merged[k-1].W += e.W
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

// FromNormalized builds a graph from edges that are already valid,
// normalized (U < V), and free of duplicates — no validation, no merge,
// and the edge order is preserved exactly, so parallel arrays indexed by
// edge position stay aligned. Callers own the contract; the sharded
// pipeline uses it for cluster subgraphs whose edges are copied from an
// already-validated parent graph.
func FromNormalized(n int, edges []Edge) *Graph {
	g := &Graph{N: n, Edges: edges}
	g.buildAdjacency()
	return g
}

// MustNew is New but panics on error; for tests and generators whose inputs
// are valid by construction.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Graph) buildAdjacency() {
	g.AdjStart = make([]int, g.N+1)
	for _, e := range g.Edges {
		g.AdjStart[e.U+1]++
		g.AdjStart[e.V+1]++
	}
	for i := 0; i < g.N; i++ {
		g.AdjStart[i+1] += g.AdjStart[i]
	}
	g.AdjTarget = make([]int, 2*len(g.Edges))
	g.AdjEdge = make([]int, 2*len(g.Edges))
	next := append([]int(nil), g.AdjStart[:g.N]...)
	for idx, e := range g.Edges {
		p := next[e.U]
		next[e.U]++
		g.AdjTarget[p] = e.V
		g.AdjEdge[p] = idx
		p = next[e.V]
		next[e.V]++
		g.AdjTarget[p] = e.U
		g.AdjEdge[p] = idx
	}
}

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.Edges) }

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u int) int { return g.AdjStart[u+1] - g.AdjStart[u] }

// WeightedDegree returns the sum of weights of edges incident to u.
func (g *Graph) WeightedDegree(u int) float64 {
	var s float64
	for p := g.AdjStart[u]; p < g.AdjStart[u+1]; p++ {
		s += g.Edges[g.AdjEdge[p]].W
	}
	return s
}

// EdgeBetween resolves an endpoint pair to its edge index via the
// adjacency of u — O(deg u), no allocation; callers resolving many pairs
// against small neighborhoods beat building an O(M) edge map.
func (g *Graph) EdgeBetween(u, v int) (int, bool) {
	for p := g.AdjStart[u]; p < g.AdjStart[u+1]; p++ {
		if g.AdjTarget[p] == v {
			return g.AdjEdge[p], true
		}
	}
	return 0, false
}

// Neighbors calls fn(v, edgeIndex, w) for every half-edge (u, v).
func (g *Graph) Neighbors(u int, fn func(v, edgeIdx int, w float64)) {
	for p := g.AdjStart[u]; p < g.AdjStart[u+1]; p++ {
		e := g.AdjEdge[p]
		fn(g.AdjTarget[p], e, g.Edges[e].W)
	}
}

// Connected reports whether the graph is connected (true for N ≤ 1).
func (g *Graph) Connected() bool {
	if g.N <= 1 {
		return true
	}
	comp := g.Components()
	for _, c := range comp {
		if c != 0 {
			return false
		}
	}
	return true
}

// Components labels vertices with component ids (0-based, in discovery
// order) and returns the label slice.
func (g *Graph) Components() []int {
	comp := make([]int, g.N)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int, 0, g.N)
	id := 0
	for s := 0; s < g.N; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = id
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for p := g.AdjStart[u]; p < g.AdjStart[u+1]; p++ {
				v := g.AdjTarget[p]
				if comp[v] == -1 {
					comp[v] = id
					queue = append(queue, v)
				}
			}
		}
		id++
	}
	return comp
}

// BFSVisitor receives vertices as a layered BFS discovers them.
// pred is the BFS predecessor (-1 for the source), layer the hop distance.
type BFSVisitor func(v, pred, layer int)

// BFSLayers runs breadth-first search from src, visiting vertices up to and
// including maxLayer hops away (maxLayer < 0 means unbounded). The visitor
// is called for every discovered vertex including the source.
//
// scratch must either be nil or a slice of length N primed to -1; when
// non-nil it is used as the visited-marker array and the caller must reset
// the touched entries (returned) back to -1 for reuse. This lets the
// sparsifier run millions of tiny BFS probes without reallocating.
func (g *Graph) BFSLayers(src, maxLayer int, scratch []int, visit BFSVisitor) (touched []int) {
	var dist []int
	if scratch != nil {
		dist = scratch
	} else {
		dist = make([]int, g.N)
		for i := range dist {
			dist[i] = -1
		}
	}
	dist[src] = 0
	touched = append(touched, src)
	visit(src, -1, 0)
	frontier := []int{src}
	for layer := 0; len(frontier) > 0 && (maxLayer < 0 || layer < maxLayer); layer++ {
		var next []int
		for _, u := range frontier {
			for p := g.AdjStart[u]; p < g.AdjStart[u+1]; p++ {
				v := g.AdjTarget[p]
				if dist[v] != -1 {
					continue
				}
				dist[v] = layer + 1
				touched = append(touched, v)
				visit(v, u, layer+1)
				next = append(next, v)
			}
		}
		frontier = next
	}
	return touched
}

// Subgraph returns a new graph over the same vertex set containing only the
// edges whose indices are listed in edgeIdx.
func (g *Graph) Subgraph(edgeIdx []int) *Graph {
	edges := make([]Edge, 0, len(edgeIdx))
	for _, idx := range edgeIdx {
		edges = append(edges, g.Edges[idx])
	}
	return MustNew(g.N, edges)
}

package sparsify

import "repro/internal/graph"

// subAdj is the adjacency of a subgraph of g (the spanning tree, or the
// current sparsifier) as an int32 CSR. It keeps g's adjacency order, so a
// BFS over it visits vertices in exactly the order a BFS over g that skips
// non-member edges would, while touching only the subgraph's edges.
type subAdj struct {
	start  []int32 // len n+1
	target []int32
}

// build fills a with the edges of g flagged in keep, reusing a's buffers.
func (a *subAdj) build(g *graph.Graph, keep []bool) {
	if cap(a.start) < g.N+1 {
		a.start = make([]int32, g.N+1)
	}
	a.start = a.start[:g.N+1]
	a.target = a.target[:0]
	for u := 0; u < g.N; u++ {
		a.start[u] = int32(len(a.target))
		for ap := g.AdjStart[u]; ap < g.AdjStart[u+1]; ap++ {
			if keep[g.AdjEdge[ap]] {
				a.target = append(a.target, int32(g.AdjTarget[ap]))
			}
		}
	}
	a.start[g.N] = int32(len(a.target))
}

// neighbors returns u's subgraph neighbors in g's adjacency order.
func (a *subAdj) neighbors(u int) []int32 {
	return a.target[a.start[u]:a.start[u+1]]
}

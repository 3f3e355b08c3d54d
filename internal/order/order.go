// Package order provides fill-reducing orderings for sparse Cholesky
// factorization: lazy minimum degree (MD) and BFS-separator nested
// dissection (ND). These stand in for the AMD ordering CHOLMOD uses in the
// paper's experimental setup.
//
// All orderings return a permutation perm with perm[newIdx] = oldIdx.
//
// Orderings are deterministic functions of the adjacency and its visit
// order, and the implementations keep them bit-identical across rewrites:
// ComputeMinDegree's typed heap reproduces the container/heap version it
// replaced, which the package tests keep as an oracle (fixed graphs plus
// FuzzComputeMinDegree).
package order

import (
	"slices"
)

// Adjacency is the minimal graph view orderings need: vertex count and a
// neighbor iterator.
type Adjacency interface {
	Len() int
	Visit(u int, fn func(v int))
}

// Compute returns the fill-reducing ordering chol.New uses by default:
// minimum degree for small or tree-like graphs, nested dissection for
// large mesh-like ones.
func Compute(a Adjacency) []int {
	n := a.Len()
	deg2 := 0
	for u := 0; u < n; u++ {
		a.Visit(u, func(int) { deg2++ })
	}
	avgDeg := 0.0
	if n > 0 {
		avgDeg = float64(deg2) / float64(n)
	}
	// Minimum degree shines on ultra-sparse (tree-like) graphs — the
	// sparsifier Laplacians — where elimination fronts stay tiny. On
	// mesh/grid-like graphs its lazy clique formation blows up, so
	// anything denser than ~2.6 average degree goes to nested
	// dissection once it is big enough to matter.
	if avgDeg <= 2.6 || n <= 2000 {
		return ComputeMinDegree(a)
	}
	return ComputeND(a)
}

// --- minimum degree ---

// mdItem is one heap entry: a vertex and the degree key it was pushed with.
type mdItem struct {
	deg, v int
}

// mdHeap is a binary min-heap on deg. Its init, push and pop repeat
// container/heap's Init, Push and Pop step for step, so entries with equal
// keys pop in exactly the order container/heap would pop them.
type mdHeap []mdItem

func (h mdHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, len(h))
	}
}

func (h *mdHeap) push(it mdItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *mdHeap) pop() mdItem {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*h = old[:n]
	return old[n]
}

func (h mdHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].deg < h[i].deg) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h mdHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].deg < h[j1].deg {
			j = j2 // right child
		}
		if !(h[j].deg < h[i].deg) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// ComputeMinDegree returns a minimum-degree ordering using lazy degree
// updates: adjacency lists accumulate duplicates and eliminated vertices and
// are compacted when a vertex is popped. On tree-like graphs (the
// sparsifier Laplacians) this runs in near-linear time with near-zero fill.
//
// The permutation is bit-identical to the container/heap and sort.Slice
// implementation this replaced: the typed heap breaks ties in the same
// order, and compaction yields the same sorted, distinct, alive neighbor
// list. Tests keep that implementation as an oracle and compare the two
// on fixed graphs, on a sharded sparsifier Laplacian, and under fuzzing.
func ComputeMinDegree(a Adjacency) []int {
	n := a.Len()
	adj := make([][]int32, n)
	for u := 0; u < n; u++ {
		a.Visit(u, func(v int) {
			adj[u] = append(adj[u], int32(v))
		})
	}
	eliminated := make([]bool, n)
	h := make(mdHeap, 0, n)
	for v := 0; v < n; v++ {
		h = append(h, mdItem{deg: len(adj[v]), v: v})
	}
	h.init()
	perm := make([]int, 0, n)
	var scratch []int32
	// mark[u] == stamp means u was already kept by the current compaction.
	mark := make([]int, n)
	stamp := 0
	compact := func(v int) []int32 {
		// Drop duplicates, eliminated neighbors and v itself in place,
		// then sort the distinct survivors.
		stamp++
		lst := adj[v]
		out := lst[:0]
		for _, u := range lst {
			if eliminated[u] || int(u) == v || mark[u] == stamp {
				continue
			}
			mark[u] = stamp
			out = append(out, u)
		}
		slices.Sort(out)
		adj[v] = out
		return out
	}
	for len(perm) < n {
		it := h.pop()
		v := it.v
		if eliminated[v] {
			continue
		}
		nb := compact(v)
		if len(nb) > it.deg {
			// Stale (too small) key; reinsert with the true degree.
			h.push(mdItem{deg: len(nb), v: v})
			continue
		}
		// Eliminate v: its alive neighbors form a clique.
		eliminated[v] = true
		perm = append(perm, v)
		scratch = append(scratch[:0], nb...)
		for _, u := range scratch {
			adj[u] = append(adj[u], scratch...)
			// Lazy: duplicates and u itself get filtered at compaction.
			h.push(mdItem{deg: len(adj[u]), v: int(u)})
		}
		adj[v] = nil
	}
	return perm
}

// --- nested dissection ---

const ndLeafSize = 200

// ComputeND returns a nested-dissection ordering: the graph is recursively
// bisected by a middle BFS level rooted at a pseudo-peripheral vertex; parts
// are ordered first and the separator last. Leaves are ordered
// breadth-first.
func ComputeND(a Adjacency) []int {
	n := a.Len()
	perm := make([]int, 0, n)
	stamp := make([]int, n) // which subset a vertex currently belongs to
	for i := range stamp {
		stamp[i] = -1
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	nd := &ndCtx{a: a, stamp: stamp, dist: make([]int, n), nextID: 0}
	// Process connected components independently.
	for _, comp := range nd.components(all, -1) {
		nd.dissect(comp, &perm)
	}
	return perm
}

type ndCtx struct {
	a      Adjacency
	stamp  []int // subset id per vertex; -1 = not in any active subset
	dist   []int
	nextID int
}

// components splits subset (whose vertices currently carry stamp id
// `owner`) into connected components, giving each a fresh stamp id.
func (nd *ndCtx) components(subset []int, owner int) [][]int {
	var comps [][]int
	for _, v := range subset {
		if nd.stamp[v] != owner {
			continue // already claimed by a new component
		}
		id := nd.nextID
		nd.nextID++
		comp := []int{v}
		nd.stamp[v] = id
		for qi := 0; qi < len(comp); qi++ {
			u := comp[qi]
			nd.a.Visit(u, func(w int) {
				if nd.stamp[w] == owner {
					nd.stamp[w] = id
					comp = append(comp, w)
				}
			})
		}
		comps = append(comps, comp)
	}
	return comps
}

func (nd *ndCtx) dissect(subset []int, perm *[]int) {
	if len(subset) <= ndLeafSize {
		nd.orderLeaf(subset, perm)
		return
	}
	owner := nd.stamp[subset[0]]
	// BFS from a pseudo-peripheral vertex of the subset.
	src := nd.peripheral(subset, owner)
	maxDist := 0
	for _, v := range subset {
		nd.dist[v] = -1
	}
	nd.dist[src] = 0
	q := make([]int, 0, len(subset))
	q = append(q, src)
	for qi := 0; qi < len(q); qi++ {
		u := q[qi]
		nd.a.Visit(u, func(w int) {
			if nd.stamp[w] == owner && nd.dist[w] == -1 {
				nd.dist[w] = nd.dist[u] + 1
				if nd.dist[w] > maxDist {
					maxDist = nd.dist[w]
				}
				q = append(q, w)
			}
		})
	}
	if maxDist < 2 {
		nd.orderLeaf(subset, perm)
		return
	}
	sepLevel := maxDist / 2
	var sep, rest []int
	for _, v := range subset {
		if nd.dist[v] == sepLevel {
			sep = append(sep, v)
		} else {
			rest = append(rest, v)
		}
	}
	if len(rest) == 0 {
		nd.orderLeaf(subset, perm)
		return
	}
	// Give separator vertices a dedicated stamp so component discovery in
	// `rest` cannot cross them.
	sepID := nd.nextID
	nd.nextID++
	for _, v := range sep {
		nd.stamp[v] = sepID
	}
	for _, comp := range nd.components(rest, owner) {
		nd.dissect(comp, perm)
	}
	nd.orderLeaf(sep, perm)
}

// orderLeaf appends subset in a BFS (Cuthill–McKee) local order. All
// vertices in subset carry the same stamp; disconnected subsets are handled
// by restarting the BFS from each unclaimed vertex.
func (nd *ndCtx) orderLeaf(subset []int, perm *[]int) {
	if len(subset) == 0 {
		return
	}
	owner := nd.stamp[subset[0]]
	done := nd.nextID
	nd.nextID++
	for _, s := range subset {
		if nd.stamp[s] != owner {
			continue // already ordered via an earlier BFS
		}
		nd.stamp[s] = done
		qStart := len(*perm)
		*perm = append(*perm, s)
		for qi := qStart; qi < len(*perm); qi++ {
			u := (*perm)[qi]
			nd.a.Visit(u, func(w int) {
				if nd.stamp[w] == owner {
					nd.stamp[w] = done
					*perm = append(*perm, w)
				}
			})
		}
	}
}

// peripheral returns a pseudo-peripheral vertex within the stamped subset.
func (nd *ndCtx) peripheral(subset []int, owner int) int {
	cur := subset[0]
	bestEcc := -1
	for iter := 0; iter < 3; iter++ {
		for _, v := range subset {
			nd.dist[v] = -1
		}
		nd.dist[cur] = 0
		q := []int{cur}
		last, ecc := cur, 0
		for qi := 0; qi < len(q); qi++ {
			u := q[qi]
			nd.a.Visit(u, func(w int) {
				if nd.stamp[w] == owner && nd.dist[w] == -1 {
					nd.dist[w] = nd.dist[u] + 1
					if nd.dist[w] > ecc {
						ecc = nd.dist[w]
						last = w
					}
					q = append(q, w)
				}
			})
		}
		if ecc <= bestEcc {
			break
		}
		bestEcc, cur = ecc, last
	}
	return cur
}

// Validate reports whether perm is a permutation of 0..n-1.
func Validate(perm []int, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

package order_test

import (
	"container/heap"
	"context"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/lap"
	"repro/internal/order"
	"repro/internal/shard"
	"repro/internal/sparse"
	"repro/internal/sparsify"
)

// The oracle below is the container/heap implementation of
// ComputeMinDegree as of commit 34e4a71, copied verbatim apart from its
// name and the order. qualifier. The package promises bit-identical
// permutations, so every fixture must give exactly the oracle's answer.

type mdItem struct {
	deg, v int
}

type mdHeap []mdItem

func (h mdHeap) Len() int            { return len(h) }
func (h mdHeap) Less(i, j int) bool  { return h[i].deg < h[j].deg }
func (h mdHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mdHeap) Push(x interface{}) { *h = append(*h, x.(mdItem)) }
func (h *mdHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func oracleMinDegree(a order.Adjacency) []int {
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
	heap.Init(&h)
	perm := make([]int, 0, n)
	var scratch []int32
	compact := func(v int) []int32 {
		// Dedup and drop eliminated neighbors in place.
		lst := adj[v]
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		out := lst[:0]
		var prev int32 = -1
		for _, u := range lst {
			if u == prev || eliminated[u] || int(u) == v {
				continue
			}
			out = append(out, u)
			prev = u
		}
		adj[v] = out
		return out
	}
	for len(perm) < n {
		it := heap.Pop(&h).(mdItem)
		v := it.v
		if eliminated[v] {
			continue
		}
		nb := compact(v)
		if len(nb) > it.deg {
			// Stale (too small) key; reinsert with the true degree.
			heap.Push(&h, mdItem{deg: len(nb), v: v})
			continue
		}
		// Eliminate v: its alive neighbors form a clique.
		eliminated[v] = true
		perm = append(perm, v)
		scratch = append(scratch[:0], nb...)
		for _, u := range scratch {
			adj[u] = append(adj[u], scratch...)
			// Lazy: duplicates and u itself get filtered at compaction.
			heap.Push(&h, mdItem{deg: len(adj[u]), v: int(u)})
		}
		adj[v] = nil
	}
	return perm
}

// adjList is an adjacency-list graph; Visit reports neighbors in list
// order, duplicates included.
type adjList [][]int

func (s adjList) Len() int { return len(s) }
func (s adjList) Visit(u int, fn func(v int)) {
	for _, v := range s[u] {
		fn(v)
	}
}

func (s adjList) link(u, v int) {
	s[u] = append(s[u], v)
	s[v] = append(s[v], u)
}

// cscAdj exposes a symmetric matrix's off-diagonal pattern, the way
// chol.New hands a Laplacian to the orderings.
type cscAdj struct{ a *sparse.CSC }

func (c cscAdj) Len() int { return c.a.Cols }
func (c cscAdj) Visit(u int, fn func(v int)) {
	for p := c.a.ColPtr[u]; p < c.a.ColPtr[u+1]; p++ {
		if v := c.a.RowIdx[p]; v != u {
			fn(v)
		}
	}
}

func pathAdj(n int) adjList {
	g := make(adjList, n)
	for i := 0; i+1 < n; i++ {
		g.link(i, i+1)
	}
	return g
}

func starAdj(leaves int) adjList {
	g := make(adjList, leaves+1)
	for i := 1; i <= leaves; i++ {
		g.link(0, i)
	}
	return g
}

func gridAdj(nx, ny int) adjList {
	g := make(adjList, nx*ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				g.link(y*nx+x, y*nx+x+1)
			}
			if y+1 < ny {
				g.link(y*nx+x, (y+1)*nx+x)
			}
		}
	}
	return g
}

// treePlusAlpha is a random spanning tree on n vertices plus alpha·n
// random extra edges (duplicates allowed), the shape of a sparsifier.
func treePlusAlpha(n int, alpha float64, seed int64) adjList {
	rng := rand.New(rand.NewSource(seed))
	g := make(adjList, n)
	for v := 1; v < n; v++ {
		g.link(v, rng.Intn(v))
	}
	for k := 0; k < int(alpha*float64(n)); k++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.link(u, v)
		}
	}
	return g
}

// union places the graphs side by side as disconnected components.
func union(parts ...adjList) adjList {
	var g adjList
	for _, p := range parts {
		off := len(g)
		for _, nb := range p {
			row := make([]int, len(nb))
			for i, v := range nb {
				row[i] = v + off
			}
			g = append(g, row)
		}
	}
	return g
}

// shardedLaplacian is the regularized sparsifier Laplacian of a sharded
// build of the build-cold-sized circuit grid (n = 12,544).
var shardedLaplacian = sync.OnceValue(func() *sparse.CSC {
	g := gen.CircuitGrid(112, 112, 0.08, 1)
	res, err := shard.Sparsify(context.Background(), g, shard.Options{Threshold: 4096, Sparsify: sparsify.Options{Seed: 1}})
	if err != nil {
		panic(err)
	}
	return lap.Laplacian(res.Sparsifier, lap.Shift(g, 0))
})

func oracleFixtures() []struct {
	name string
	a    order.Adjacency
} {
	return []struct {
		name string
		a    order.Adjacency
	}{
		{"n=0", adjList{}},
		{"n=1", adjList{nil}},
		{"isolated", make(adjList, 17)},
		{"path", pathAdj(50)},
		{"star", starAdj(40)},
		{"tree+alpha/0", treePlusAlpha(300, 0.1, 1)},
		{"tree+alpha/1", treePlusAlpha(1000, 0.3, 2)},
		{"tree+alpha/2", treePlusAlpha(2000, 0.05, 3)},
		{"grid", gridAdj(23, 31)},
		{"components", union(pathAdj(20), make(adjList, 3), starAdj(15), gridAdj(9, 7), treePlusAlpha(200, 0.2, 4))},
		{"sharded-circuitgrid", cscAdj{shardedLaplacian()}},
	}
}

func TestMinDegreeMatchesOracle(t *testing.T) {
	for _, fx := range oracleFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			got, want := order.ComputeMinDegree(fx.a), oracleMinDegree(fx.a)
			if !slices.Equal(got, want) {
				t.Fatalf("permutation differs from the oracle (first 10: %v vs %v)", head(got), head(want))
			}
		})
	}
}

func head(p []int) []int { return p[:min(len(p), 10)] }

// FuzzComputeMinDegree decodes an undirected multigraph from the fuzz
// bytes — data[0] is the vertex count, each following byte pair one edge
// (self-loops and duplicates included) — and checks that ComputeMinDegree
// returns a valid permutation equal to the oracle's.
func FuzzComputeMinDegree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{14, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0, 12, 0, 13})
	f.Add([]byte{9, 0, 1, 1, 2, 3, 4, 4, 5, 6, 7, 7, 8, 0, 3, 1, 4, 2, 5, 3, 6, 4, 7, 5, 8, 1, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])
		g := make(adjList, n)
		if n > 0 {
			for k := 1; k+1 < len(data); k += 2 {
				g.link(int(data[k])%n, int(data[k+1])%n)
			}
		}
		got := order.ComputeMinDegree(g)
		if !order.Validate(got, n) {
			t.Fatalf("invalid permutation %v", got)
		}
		if want := oracleMinDegree(g); !slices.Equal(got, want) {
			t.Fatalf("permutation %v, oracle %v", got, want)
		}
	})
}

// BenchmarkMinDegree orders the sharded build-cold sparsifier Laplacian.
func BenchmarkMinDegree(b *testing.B) {
	a := cscAdj{shardedLaplacian()}
	b.ReportAllocs()
	for b.Loop() {
		order.ComputeMinDegree(a)
	}
}

package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func square() *Graph {
	// 0-1
	// |  |
	// 3-2   plus diagonal 0-2
	return MustNew(4, []Edge{
		{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 0, 4}, {0, 2, 5},
	})
}

func TestNewRejectsBadEdges(t *testing.T) {
	if _, err := New(2, []Edge{{0, 0, 1}}); err == nil {
		t.Error("self loop accepted")
	}
	if _, err := New(2, []Edge{{0, 2, 1}}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if _, err := New(2, []Edge{{0, 1, -1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := New(2, []Edge{{0, 1, 0}}); err == nil {
		t.Error("zero weight accepted")
	}
}

func TestDuplicateEdgesMerged(t *testing.T) {
	g := MustNew(2, []Edge{{0, 1, 1}, {1, 0, 2.5}})
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (duplicates merged)", g.M())
	}
	if g.Edges[0].W != 3.5 {
		t.Errorf("merged weight = %g, want 3.5", g.Edges[0].W)
	}
}

func TestDegreeAndWeightedDegree(t *testing.T) {
	g := square()
	if g.Degree(0) != 3 {
		t.Errorf("Degree(0) = %d, want 3", g.Degree(0))
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d, want 2", g.Degree(1))
	}
	if wd := g.WeightedDegree(0); wd != 1+4+5 {
		t.Errorf("WeightedDegree(0) = %g, want 10", wd)
	}
}

func TestNeighborsSeesEachIncidentEdgeOnce(t *testing.T) {
	g := square()
	count := 0
	sum := 0.0
	g.Neighbors(2, func(v, e int, w float64) {
		count++
		sum += w
	})
	if count != 3 {
		t.Errorf("vertex 2 has %d half-edges, want 3", count)
	}
	if sum != 2+3+5 {
		t.Errorf("incident weight sum = %g, want 10", sum)
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := square()
	if !g.Connected() {
		t.Error("square should be connected")
	}
	h := MustNew(4, []Edge{{0, 1, 1}, {2, 3, 1}})
	if h.Connected() {
		t.Error("two components reported connected")
	}
	comp := h.Components()
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] {
		t.Errorf("components = %v", comp)
	}
}

func TestBFSLayersRespectsCap(t *testing.T) {
	// Path 0-1-2-3-4.
	g := MustNew(5, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}})
	var visited []int
	layers := map[int]int{}
	g.BFSLayers(0, 2, nil, func(v, pred, layer int) {
		visited = append(visited, v)
		layers[v] = layer
	})
	if len(visited) != 3 {
		t.Fatalf("visited %v, want exactly {0,1,2}", visited)
	}
	if layers[2] != 2 || layers[1] != 1 || layers[0] != 0 {
		t.Errorf("layers = %v", layers)
	}
}

func TestBFSLayersScratchReuse(t *testing.T) {
	g := square()
	scratch := make([]int, g.N)
	for i := range scratch {
		scratch[i] = -1
	}
	touched := g.BFSLayers(0, 1, scratch, func(v, pred, layer int) {})
	// Reset and run again from a different source; must not see stale marks.
	for _, v := range touched {
		scratch[v] = -1
	}
	var count int
	g.BFSLayers(3, 1, scratch, func(v, pred, layer int) { count++ })
	if count != 3 { // 3 plus neighbors 2 and 0
		t.Errorf("second BFS visited %d vertices, want 3", count)
	}
}

func TestBFSPredecessors(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1, 1}, {1, 2, 1}})
	preds := map[int]int{}
	g.BFSLayers(0, -1, nil, func(v, pred, layer int) { preds[v] = pred })
	if preds[0] != -1 || preds[1] != 0 || preds[2] != 1 {
		t.Errorf("preds = %v", preds)
	}
}

func TestSubgraph(t *testing.T) {
	g := square()
	s := g.Subgraph([]int{0, 2}) // edges (0,1) and (2,3)
	if s.M() != 2 || s.N != 4 {
		t.Fatalf("subgraph has %d edges over %d vertices", s.M(), s.N)
	}
	if s.Connected() {
		t.Error("subgraph should be disconnected")
	}
}

// Property: adjacency structure is consistent — every edge appears exactly
// twice across all adjacency lists, once per endpoint.
func TestAdjacencyConsistencyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		var edges []Edge
		for k := 0; k < 3*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, Edge{U: u, V: v, W: rng.Float64() + 0.1})
		}
		g, err := New(n, edges)
		if err != nil {
			return false
		}
		seen := make([]int, g.M())
		for u := 0; u < n; u++ {
			g.Neighbors(u, func(v, e int, w float64) {
				seen[e]++
				ed := g.Edges[e]
				if !(ed.U == u && ed.V == v) && !(ed.V == u && ed.U == v) {
					t.Fatalf("adjacency edge mismatch")
				}
			})
		}
		for _, c := range seen {
			if c != 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSortMergeMatchesMapMerge: above dedupSortThreshold New switches to
// the sort-based merge; the resulting graph must agree with the map-based
// path on the merged edge set and summed weights (order aside).
func TestSortMergeMatchesMapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 300
	raw := make([]Edge, 0, dedupSortThreshold+512)
	for len(raw) < dedupSortThreshold+512 {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		raw = append(raw, Edge{U: u, V: v, W: 1 + rng.Float64()})
	}
	big, err := New(n, raw) // sort-based path
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalize(n, raw)
	if err != nil {
		t.Fatal(err)
	}
	want := mergeMap(norm) // map path on the same input
	if big.M() != len(want) {
		t.Fatalf("sort path merged to %d edges, map path to %d", big.M(), len(want))
	}
	wantW := make(map[[2]int]float64, len(want))
	for _, e := range want {
		wantW[[2]int{e.U, e.V}] = e.W
	}
	for _, e := range big.Edges {
		w, ok := wantW[[2]int{e.U, e.V}]
		if !ok {
			t.Fatalf("edge (%d,%d) missing from map-path result", e.U, e.V)
		}
		if diff := math.Abs(w - e.W); diff > 1e-12*math.Abs(w) {
			t.Fatalf("edge (%d,%d): sort path weight %g, map path %g", e.U, e.V, e.W, w)
		}
	}
	// Sorted output contract: normalized and strictly increasing (U, V).
	for i := 1; i < len(big.Edges); i++ {
		a, b := big.Edges[i-1], big.Edges[i]
		if a.U > b.U || (a.U == b.U && a.V >= b.V) {
			t.Fatalf("edges %d,%d out of order: (%d,%d) then (%d,%d)", i-1, i, a.U, a.V, b.U, b.V)
		}
	}
}

// TestSortMergeValidation: the large-input path rejects the same bad
// edges as the small one.
func TestSortMergeValidation(t *testing.T) {
	edges := make([]Edge, dedupSortThreshold+1)
	for i := range edges {
		edges[i] = Edge{U: 0, V: 1, W: 1}
	}
	edges[dedupSortThreshold] = Edge{U: 5, V: 5, W: 1}
	if _, err := New(6, edges); err == nil {
		t.Fatal("self loop accepted on the sort-merge path")
	}
}

// BenchmarkNewLargeDedup is the satellite's motivating measurement: the
// per-edge map insert the sort-based merge removes.
func BenchmarkNewLargeDedup(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	n := 100000
	edges := make([]Edge, 400000)
	for i := range edges {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			v = (u + 1) % n
		}
		edges[i] = Edge{U: u, V: v, W: 1 + rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(n, edges); err != nil {
			b.Fatal(err)
		}
	}
}

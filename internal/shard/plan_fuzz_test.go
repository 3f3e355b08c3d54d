package shard_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/shard"
)

// oracleAssign is the retained-plan rebuild written the slow way, kept as
// the oracle for PlanFromAssign: for each dirty cluster id in order, a BFS
// over the cluster's induced edges (found by scanning the whole edge list)
// from its lowest unvisited vertex, again and again. The first component
// keeps the id; every later one gets the next id from K up. Returns the
// new assignment, the cluster count and the dirty mask.
func oracleAssign(g *graph.Graph, assign, dirtyVertices []int) ([]int, int, []bool) {
	k := 0
	for _, id := range assign {
		k = max(k, id+1)
	}
	dirty := make([]bool, k)
	for _, v := range dirtyVertices {
		dirty[assign[v]] = true
	}
	if dirtyVertices == nil {
		for ci := range dirty {
			dirty[ci] = true
		}
	}
	adj := make([][]int, g.N)
	for _, e := range g.Edges {
		if assign[e.U] == assign[e.V] {
			adj[e.U] = append(adj[e.U], e.V)
			adj[e.V] = append(adj[e.V], e.U)
		}
	}
	out := slices.Clone(assign)
	seen := make([]bool, g.N)
	var extra [][]int
	for ci := 0; ci < k; ci++ {
		if !dirty[ci] {
			continue
		}
		first := true
		for s := 0; s < g.N; s++ {
			if assign[s] != ci || seen[s] {
				continue
			}
			comp := []int{s}
			seen[s] = true
			for q := 0; q < len(comp); q++ {
				for _, u := range adj[comp[q]] {
					if !seen[u] {
						seen[u] = true
						comp = append(comp, u)
					}
				}
			}
			if !first {
				extra = append(extra, comp)
			}
			first = false
		}
	}
	for i, comp := range extra {
		for _, v := range comp {
			out[v] = k + i
		}
		dirty = append(dirty, true)
	}
	return out, k + len(extra), dirty
}

// connectedWithin reports whether the vertices assigned id induce a
// connected subgraph of g.
func connectedWithin(g *graph.Graph, assign []int, id int) bool {
	var verts []int
	for v, c := range assign {
		if c == id {
			verts = append(verts, v)
		}
	}
	if len(verts) <= 1 {
		return true
	}
	seen := map[int]bool{verts[0]: true}
	for q := []int{verts[0]}; len(q) > 0; q = q[1:] {
		v := q[0]
		for p := g.AdjStart[v]; p < g.AdjStart[v+1]; p++ {
			if u := g.AdjTarget[p]; assign[u] == id && !seen[u] {
				seen[u] = true
				q = append(q, u)
			}
		}
	}
	return len(seen) == len(verts)
}

// checkPlan compares PlanFromAssign(g, assign, dirtyVertices) against the
// oracle.
func checkPlan(t *testing.T, g *graph.Graph, assign, dirtyVertices []int) *shard.Plan {
	t.Helper()
	plan, err := shard.PlanFromAssign(g, assign, dirtyVertices)
	if err != nil {
		t.Fatal(err)
	}
	wantAssign, wantK, wantDirty := oracleAssign(g, assign, dirtyVertices)
	if plan.K != wantK || len(plan.Clusters) != wantK {
		t.Fatalf("K = %d (%d clusters), oracle %d", plan.K, len(plan.Clusters), wantK)
	}
	if !slices.Equal(plan.Assign, wantAssign) {
		t.Fatalf("Assign = %v, oracle %v", plan.Assign, wantAssign)
	}
	if !slices.Equal(plan.Dirty, wantDirty) {
		t.Fatalf("Dirty = %v, oracle %v", plan.Dirty, wantDirty)
	}
	var wantCut []int
	wantEdges := make([]int, wantK)
	for e, ed := range g.Edges {
		if cu := wantAssign[ed.U]; cu == wantAssign[ed.V] {
			wantEdges[cu]++
		} else {
			wantCut = append(wantCut, e)
		}
	}
	if !slices.Equal(plan.CutEdges, wantCut) {
		t.Fatalf("CutEdges = %v, oracle %v", plan.CutEdges, wantCut)
	}
	for ci := range plan.Clusters {
		cl := &plan.Clusters[ci]
		var wantVerts []int
		for v, c := range wantAssign {
			if c == ci {
				wantVerts = append(wantVerts, v)
			}
		}
		if !slices.Equal(cl.Vertices, wantVerts) {
			t.Fatalf("cluster %d: vertices %v, oracle %v", ci, cl.Vertices, wantVerts)
		}
		if cl.LocalEdges() != wantEdges[ci] {
			t.Fatalf("cluster %d: %d local edges, oracle %d", ci, cl.LocalEdges(), wantEdges[ci])
		}
		if !connectedWithin(g, plan.Assign, ci) {
			t.Fatalf("cluster %d is disconnected", ci)
		}
		if (cl.Local != nil) != plan.Dirty[ci] {
			t.Fatalf("cluster %d: materialized=%v, dirty=%v", ci, cl.Local != nil, plan.Dirty[ci])
		}
		if !plan.Dirty[ci] {
			for _, v := range cl.Vertices {
				if assign[v] != ci {
					t.Fatalf("clean cluster %d: vertex %d moved from cluster %d", ci, v, assign[v])
				}
			}
			continue
		}
		if cl.Local.N != len(cl.Vertices) || len(cl.GlobalEdge) != cl.Local.M() {
			t.Fatalf("cluster %d: local graph %d/%d, %d vertices, %d global edges",
				ci, cl.Local.N, cl.Local.M(), len(cl.Vertices), len(cl.GlobalEdge))
		}
		for j, le := range cl.Local.Edges {
			ge := g.Edges[cl.GlobalEdge[j]]
			u, v := cl.Vertices[le.U], cl.Vertices[le.V]
			if min(u, v) != ge.U || max(u, v) != ge.V || le.W != ge.W {
				t.Fatalf("cluster %d: local edge %d (%d-%d) does not match global edge %v", ci, j, u, v, ge)
			}
		}
	}
	return plan
}

// FuzzRetainedPlan checks PlanFromAssign against oracleAssign on random
// graphs, random assignments and a random reweight or structural delta:
// first with every cluster dirty on the base graph (which splits the
// random assignment into connected clusters), then with the delta's
// touched vertices on the patched graph.
func FuzzRetainedPlan(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(40), uint8(3), uint8(2), false)
	f.Add(int64(2), uint8(30), uint8(10), uint8(4), uint8(5), true)
	f.Add(int64(3), uint8(12), uint8(80), uint8(1), uint8(1), true)
	f.Add(int64(4), uint8(40), uint8(25), uint8(8), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, n, density, k, edits uint8, structural bool) {
		rng := rand.New(rand.NewSource(seed))
		nv := 2 + int(n%48)
		var edges []graph.Edge
		for u := 0; u < nv; u++ {
			for v := u + 1; v < nv; v++ {
				if rng.Intn(256) < int(density)%128+8 {
					edges = append(edges, graph.Edge{U: u, V: v, W: 0.5 + rng.Float64()})
				}
			}
		}
		g := graph.MustNew(nv, edges)
		raw := make([]int, nv)
		for v := range raw {
			raw[v] = rng.Intn(1 + int(k%8))
		}
		base := checkPlan(t, g, raw, nil)

		var d graph.Delta
		for i := 0; i < int(edits%6); i++ {
			u, v := rng.Intn(nv), rng.Intn(nv)
			if u == v {
				continue
			}
			_, exists := g.EdgeBetween(u, v)
			switch {
			case structural && exists:
				d.Remove = append(d.Remove, [2]int{u, v})
			case structural || exists:
				d.Set = append(d.Set, graph.Edge{U: u, V: v, W: 0.5 + rng.Float64()})
			}
		}
		p, err := d.ApplyPatch(g)
		if err != nil {
			return // a pair drawn twice: the delta is invalid, not the plan
		}
		checkPlan(t, p.G, base.Assign, p.Touched)
	})
}

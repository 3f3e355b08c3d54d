package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/sparse"
	"repro/internal/sparsify"
)

func shardedFixture(t *testing.T) (*graph.Graph, *Sparsifier) {
	t.Helper()
	g := gen.CircuitGrid(24, 24, 0.05, 9)
	cfg := Config{Sparsify: sparsify.Options{Seed: 1}, ShardThreshold: 128, Shards: 4}
	s, err := NewSparsifier(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.ShardStats() == nil || s.ShardStats().Abandoned {
		t.Fatal("fixture did not build sharded; retune")
	}
	return g, s
}

// matchCSC compares a patched CSC matrix against a cold-assembled
// reference: identical stored structure modulo stored zeros (the patched
// pattern may carry dead slots), off-diagonals bit-exact, diagonals to a
// relative ULP budget (patching recomputes touched diagonals in adjacency
// order; cold assembly sums the same terms in triplet order).
func matchCSC(t *testing.T, tag string, got, want *sparse.CSC) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: dims %dx%d, want %dx%d", tag, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for j := 0; j < want.Cols; j++ {
		for q := want.ColPtr[j]; q < want.ColPtr[j+1]; q++ {
			i := want.RowIdx[q]
			k := got.FindEntry(i, j)
			if k < 0 {
				t.Fatalf("%s: entry (%d,%d) missing from patched matrix", tag, i, j)
			}
			gv, wv := got.Val[k], want.Val[q]
			if i != j {
				if gv != wv {
					t.Fatalf("%s: off-diagonal (%d,%d) = %g, want %g bit-exact", tag, i, j, gv, wv)
				}
				continue
			}
			if rel := math.Abs(gv-wv) / math.Max(math.Abs(wv), 1); rel > 1e-12 {
				t.Fatalf("%s: diagonal %d = %g, want %g (rel %g)", tag, i, gv, wv, rel)
			}
		}
	}
	// Any extra stored entry in the patched matrix must be a dead slot.
	for j := 0; j < got.Cols; j++ {
		for q := got.ColPtr[j]; q < got.ColPtr[j+1]; q++ {
			i := got.RowIdx[q]
			if want.FindEntry(i, j) < 0 && got.Val[q] != 0 {
				t.Fatalf("%s: patched matrix has nonzero (%d,%d)=%g absent from reference", tag, i, j, got.Val[q])
			}
		}
	}
}

// TestUpdatePatchedPencilMatchesCold: a reweight-only delta must take the
// full fast path — localized stitch, both Laplacians patched in place —
// and the patched matrices must equal cold assembly of the updated
// graphs under the same (retained) shift.
func TestUpdatePatchedPencilMatchesCold(t *testing.T) {
	ctx := context.Background()
	g, s := shardedFixture(t)

	var d graph.Delta
	for _, e := range g.Edges {
		if e.U < 40 && e.V < 40 && len(d.Set) < 6 {
			d.Set = append(d.Set, graph.Edge{U: e.U, V: e.V, W: e.W * 1.3})
		}
	}
	up, err := s.Update(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	st := up.UpdateStats()
	if st == nil {
		t.Fatal("updated handle has no UpdateStats")
	}
	if !st.Localized || !st.LGPatched || !st.LPPatched {
		t.Fatalf("fast path incomplete: Localized=%v LGPatched=%v LPPatched=%v",
			st.Localized, st.LGPatched, st.LPPatched)
	}
	if !up.ShardStats().StitchLocalized {
		t.Fatal("shard stats do not report a localized stitch")
	}
	matchCSC(t, "LG", up.pen.LG, lap.Laplacian(up.BaseGraph(), up.pen.Shift))
	matchCSC(t, "LP", up.pen.LP, lap.Laplacian(up.sub, up.pen.Shift))
	// The retained shift is the base handle's, by design.
	for i, v := range up.pen.Shift {
		if v != s.pen.Shift[i] {
			t.Fatalf("patched pencil shift[%d] = %g, want base %g", i, v, s.pen.Shift[i])
		}
	}
}

// TestUpdateChainedEquivalence drives a chain of deltas — reweights,
// an addition, a removal, a resurrection — through Update and checks at
// every step that (1) the maintained graph equals a from-scratch
// d.Apply, (2) the pencil matches cold assembly under the retained
// shift, and (3) solves through the updated handle agree with a cold
// handle built on the same graph.
func TestUpdateChainedEquivalence(t *testing.T) {
	ctx := context.Background()
	g, s := shardedFixture(t)

	e0 := g.Edges[0]
	chain := []graph.Delta{
		{Set: []graph.Edge{{U: e0.U, V: e0.V, W: e0.W * 2}}},
		{Set: []graph.Edge{{U: 0, V: 50, W: 0.8}}}, // addition
		{Remove: [][2]int{{0, 50}}},                // removal of the addition
		{Set: []graph.Edge{{U: 0, V: 50, W: 0.5}}}, // resurrection at a new weight
		{Set: []graph.Edge{{U: e0.U, V: e0.V, W: e0.W * 2.5}, {U: 2, V: 3, W: 1.1}}},
	}

	cur := s
	wantG := g
	for step, d := range chain {
		var err error
		wantG, err = d.Apply(wantG)
		if err != nil {
			t.Fatalf("step %d: reference apply: %v", step, err)
		}
		cur, err = cur.Update(ctx, d)
		if err != nil {
			t.Fatalf("step %d: update: %v", step, err)
		}
		back := cur.BaseGraph()
		if back.M() != wantG.M() {
			t.Fatalf("step %d: graph has %d edges, want %d", step, back.M(), wantG.M())
		}
		want := make(map[[2]int]float64, wantG.M())
		for _, e := range wantG.Edges {
			want[[2]int{e.U, e.V}] = e.W
		}
		for _, e := range back.Edges {
			if want[[2]int{e.U, e.V}] != e.W {
				t.Fatalf("step %d: edge (%d,%d) weight %g, want %g", step, e.U, e.V, e.W, want[[2]int{e.U, e.V}])
			}
		}
		matchCSC(t, "LG", cur.pen.LG, lap.Laplacian(back, cur.pen.Shift))
		matchCSC(t, "LP", cur.pen.LP, lap.Laplacian(cur.sub, cur.pen.Shift))

		// Solve equivalence against a cold handle on the same graph.
		cold, err := NewSparsifier(ctx, wantG, s.cfg)
		if err != nil {
			t.Fatalf("step %d: cold build: %v", step, err)
		}
		b := make([]float64, wantG.N)
		b[0], b[wantG.N-1] = 1, -1
		su, err := cur.SolveTol(ctx, b, 1e-9)
		if err != nil {
			t.Fatalf("step %d: updated solve: %v", step, err)
		}
		sc, err := cold.SolveTol(ctx, b, 1e-9)
		if err != nil {
			t.Fatalf("step %d: cold solve: %v", step, err)
		}
		var num, den float64
		for i := range su.X {
			num += (su.X[i] - sc.X[i]) * (su.X[i] - sc.X[i])
			den += sc.X[i] * sc.X[i]
		}
		if rel := math.Sqrt(num / den); rel > 1e-6 {
			t.Fatalf("step %d: solutions diverge, rel %g", step, rel)
		}
	}
}

// TestUpdateChainReuseMonotone: a chain of deltas confined to one corner
// keeps dirtying the same clusters, so cluster reuse must never collapse
// — every step reuses at least the clean majority.
func TestUpdateChainReuseMonotone(t *testing.T) {
	ctx := context.Background()
	g, s := shardedFixture(t)

	var corner []graph.Edge
	for _, e := range g.Edges {
		if e.U < 30 && e.V < 30 && len(corner) < 4 {
			corner = append(corner, e)
		}
	}
	cur := s
	for step := 0; step < 5; step++ {
		var d graph.Delta
		for _, e := range corner {
			d.Set = append(d.Set, graph.Edge{U: e.U, V: e.V, W: e.W * (1 + 0.1*float64(step+1))})
		}
		var err error
		cur, err = cur.Update(ctx, d)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		st := cur.ShardStats()
		if !st.Incremental || !st.StitchLocalized {
			t.Fatalf("step %d: Incremental=%v StitchLocalized=%v", step, st.Incremental, st.StitchLocalized)
		}
		if want := st.Shards - st.DirtyClusters; st.ClustersReused < want {
			t.Fatalf("step %d: ClustersReused = %d, want ≥ %d (clean clusters)", step, st.ClustersReused, want)
		}
		if up := cur.UpdateStats(); up == nil || !up.LGPatched || !up.LPPatched {
			t.Fatalf("step %d: pencil not patched on a reweight-only chain (%+v)", step, up)
		}
	}
}

// TestUpdateStoredZeroCompaction: repeated remove/add churn accumulates
// stored zeros in the patched Laplacians; the compaction guard must fire
// before they exceed the threshold share, and the matrices stay correct
// throughout.
func TestUpdateStoredZeroCompaction(t *testing.T) {
	ctx := context.Background()
	_, s := shardedFixture(t)

	cur := s
	compacted := false
	for step := 0; step < 60; step++ {
		// Alternate adding and removing a batch of chords in one corner.
		var d graph.Delta
		base := 2 * step
		if step%2 == 0 {
			for k := 0; k < 8; k++ {
				d.Set = append(d.Set, graph.Edge{U: k, V: 25 + k + base%7, W: 0.3})
			}
		} else {
			for k := 0; k < 8; k++ {
				d.Remove = append(d.Remove, [2]int{k, 25 + k + (base-2)%7})
			}
		}
		var err error
		cur, err = cur.Update(ctx, d)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if up := cur.UpdateStats(); up != nil {
			if up.Compacted {
				compacted = true
			}
			nnz := cur.pen.LG.NNZ() + cur.pen.LP.NNZ()
			if up.StoredZeros*storedZeroCompactionDiv > 2*nnz {
				t.Fatalf("step %d: stored zeros %d ran away past the compaction bound (nnz %d)", step, up.StoredZeros, nnz)
			}
		}
	}
	if !compacted {
		t.Log("compaction never triggered in 60 steps (allowed: dead slots are being reused)")
	}
	matchCSC(t, "LG", cur.pen.LG, lap.Laplacian(cur.BaseGraph(), cur.pen.Shift))
}

// offDiagMismatches counts the off-diagonal entries in which got and the
// cold-assembled want differ, stored zeros in got aside.
func offDiagMismatches(got, want *sparse.CSC) int {
	n := 0
	for j := 0; j < want.Cols; j++ {
		for q := want.ColPtr[j]; q < want.ColPtr[j+1]; q++ {
			if i := want.RowIdx[q]; i != j {
				if k := got.FindEntry(i, j); k < 0 || got.Val[k] != want.Val[q] {
					n++
				}
			}
		}
		for q := got.ColPtr[j]; q < got.ColPtr[j+1]; q++ {
			if i := got.RowIdx[q]; i != j && got.Val[q] != 0 && want.FindEntry(i, j) < 0 {
				n++
			}
		}
	}
	return n
}

// TestUpdateClusterSplitKeepsIds: a structural delta that disconnects a
// cluster splits it in two. The split must not renumber the untouched
// clusters — their ids drive seeds and fingerprints — so they are reused
// as is, and the patched L_P must equal the Laplacian of the sparsifier
// the handle serves. Under GRASS a renumbered cluster gets a new seed and
// new edges that a dirty-region patch would miss.
func TestUpdateClusterSplitKeepsIds(t *testing.T) {
	ctx := context.Background()
	g := gen.Grid2D(48, 48, 2)
	for _, m := range []sparsify.Method{sparsify.TraceReduction, sparsify.GRASS, sparsify.FeGRASS} {
		t.Run(m.String(), func(t *testing.T) {
			cfg := Config{ShardThreshold: 600, Sparsify: sparsify.Options{Seed: 1, Method: m}}
			base, err := NewSparsifier(ctx, g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			bst := base.ShardStats()
			assign := bst.Assign
			// Cut the first cluster-0 vertex with a cut neighbour off from
			// the rest of its cluster: it stays connected through the cut.
			var d graph.Delta
			for v := 0; v < g.N && len(d.Remove) == 0; v++ {
				if assign[v] != 0 {
					continue
				}
				cut := false
				var intra [][2]int
				for p := g.AdjStart[v]; p < g.AdjStart[v+1]; p++ {
					if u := g.AdjTarget[p]; assign[u] == 0 {
						intra = append(intra, [2]int{v, u})
					} else {
						cut = true
					}
				}
				if cut {
					d.Remove = intra
				}
			}
			up, err := base.Update(ctx, d)
			if err != nil {
				t.Fatal(err)
			}
			st := up.ShardStats()
			if !st.Incremental || st.Shards != bst.Shards+1 {
				t.Fatalf("Incremental=%v K=%d, want an incremental split of K=%d; fixture needs retuning",
					st.Incremental, st.Shards, bst.Shards)
			}
			for ci := 1; ci < bst.Shards; ci++ {
				if !st.PerShard[ci].Reused || st.ClusterKeys[ci] != bst.ClusterKeys[ci] {
					t.Errorf("untouched cluster %d: reused=%v, key %s (base %s)",
						ci, st.PerShard[ci].Reused, st.ClusterKeys[ci], bst.ClusterKeys[ci])
				}
			}
			if !up.UpdateStats().LPPatched {
				t.Fatal("L_P was not patched; the test needs the patched path")
			}
			if n := offDiagMismatches(up.pen.LP, lap.Laplacian(up.SparsifierGraph(), up.pen.Shift)); n != 0 {
				t.Fatalf("patched L_P differs from the served sparsifier's Laplacian in %d off-diagonals", n)
			}
		})
	}
}

package shard_test

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/sparsify"
)

// baseSubFunc builds the endpoint-membership oracle a Localize carries:
// whether the undirected edge (u, v) was in the base sparsifier.
func baseSubFunc(g *graph.Graph, res *sparsify.Result) func(u, v int) bool {
	in := make(map[[2]int]bool, len(res.EdgeIdx))
	for _, ei := range res.EdgeIdx {
		ed := g.Edges[ei]
		u, v := ed.U, ed.V
		if u > v {
			u, v = v, u
		}
		in[[2]int{u, v}] = true
	}
	return func(u, v int) bool {
		if u > v {
			u, v = v, u
		}
		return in[[2]int{u, v}]
	}
}

// localizeFromBase assembles the Localize handoff exactly the way the
// core fast path does: endpoint membership always, index adoption only
// for non-structural patches.
func localizeFromBase(g *graph.Graph, res *sparsify.Result, p *graph.Patch) *shard.Localize {
	loc := &shard.Localize{
		DirtyVertices: p.Touched,
		BaseSub:       baseSubFunc(g, res),
	}
	if !p.Structural() {
		loc.IndexAligned = true
		loc.BaseEdgeIdx = res.EdgeIdx
		loc.BaseKeys = res.Shards.ClusterKeys
	}
	return loc
}

// cleanCutCompat checks the acceptance contract: every cut edge of the
// incremental plan whose endpoint clusters are both clean must have
// exactly the base build's membership. Returns the number of clean-clean
// cut edges checked.
func cleanCutCompat(t *testing.T, g *graph.Graph, res *sparsify.Result, baseSub func(u, v int) bool, dirtyVerts []int) int {
	t.Helper()
	assign := res.Shards.Assign
	dirty := make([]bool, res.Shards.Shards)
	for _, v := range dirtyVerts {
		dirty[assign[v]] = true
	}
	checked := 0
	for ei, ed := range g.Edges {
		if assign[ed.U] == assign[ed.V] || dirty[assign[ed.U]] || dirty[assign[ed.V]] {
			continue
		}
		checked++
		if res.InSub[ei] != baseSub(ed.U, ed.V) {
			t.Errorf("clean-clean cut edge %d (%d-%d): localized membership %v, base %v",
				ei, ed.U, ed.V, res.InSub[ei], baseSub(ed.U, ed.V))
		}
	}
	return checked
}

func TestLocalizedStitchReweightBitCompat(t *testing.T) {
	g := threeCommunities(14, 11)
	ctx := context.Background()
	opts := shard.Options{Shards: 3, Sparsify: sparsify.Options{Seed: 5}}
	base, err := shard.Sparsify(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if base.Shards.Abandoned {
		t.Fatal("base build abandoned its plan; fixture needs retuning")
	}

	// Reweight a handful of edges inside community 0 only (vertices
	// 0..195): a non-structural, index-aligned delta.
	var d graph.Delta
	bumped := 0
	for _, ed := range g.Edges {
		if ed.U < 14*14 && ed.V < 14*14 && bumped < 8 {
			d.Set = append(d.Set, graph.Edge{U: ed.U, V: ed.V, W: ed.W * 1.5})
			bumped++
		}
	}
	p, err := d.ApplyPatch(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.Structural() {
		t.Fatal("reweight-only delta came back structural")
	}

	loc := localizeFromBase(g, base, p)
	iopts := opts
	iopts.Localize = loc
	iopts.BaseAssign = base.Shards.Assign
	res, err := shard.Sparsify(ctx, p.G, iopts)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Shards
	if !st.Incremental || !st.StitchLocalized {
		t.Fatalf("Incremental=%v StitchLocalized=%v, want both true", st.Incremental, st.StitchLocalized)
	}
	if st.DirtyClusters < 1 || st.DirtyClusters >= st.Shards {
		t.Fatalf("DirtyClusters = %d with %d shards; delta is confined to one community", st.DirtyClusters, st.Shards)
	}
	// Every clean cluster must be adopted by index (Reused without a
	// cache configured proves the index path ran).
	if want := st.Shards - st.DirtyClusters; st.ClustersReused != want {
		t.Fatalf("ClustersReused = %d, want %d (clean clusters adopted by index)", st.ClustersReused, want)
	}
	if checked := cleanCutCompat(t, p.G, res, loc.BaseSub, p.Touched); checked == 0 {
		t.Fatal("no clean-clean cut edges checked; fixture needs retuning")
	}
	if st.CutAdopted == 0 {
		t.Fatal("CutAdopted = 0: no clean-clean stitch decisions were adopted")
	}
	if !res.Sparsifier.Connected() {
		t.Fatal("localized sparsifier is disconnected")
	}
	// Index adoption means every clean cluster's intra-cluster sparsifier
	// edges match the base exactly — not just the cut seams.
	dirty := make([]bool, st.Shards)
	for _, v := range p.Touched {
		dirty[st.Assign[v]] = true
	}
	for ei, ed := range p.G.Edges {
		cu, cv := st.Assign[ed.U], st.Assign[ed.V]
		if cu != cv || dirty[cu] {
			continue
		}
		if res.InSub[ei] != base.InSub[ei] {
			t.Fatalf("clean intra-cluster edge %d: localized membership %v, base %v", ei, res.InSub[ei], base.InSub[ei])
		}
	}
}

func TestLocalizedStitchStructuralDelta(t *testing.T) {
	g := threeCommunities(14, 11)
	ctx := context.Background()
	opts := shard.Options{Shards: 3, Sparsify: sparsify.Options{Seed: 5}}
	base, err := shard.Sparsify(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Structural delta confined to community 0: remove one interior
	// edge, add a chord. Community 0 is a grid, so removing one interior
	// edge keeps it connected.
	var rm graph.Edge
	for _, ed := range g.Edges {
		if ed.U < 14*14 && ed.V < 14*14 && ed.U > 20 {
			rm = ed
			break
		}
	}
	d := graph.Delta{
		Remove: [][2]int{{rm.U, rm.V}},
		Set:    []graph.Edge{{U: 3, V: 14*14 - 5, W: 0.7}}, // new chord inside community 0
	}
	p, err := d.ApplyPatch(g)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Structural() {
		t.Fatal("remove+add delta came back non-structural")
	}

	loc := localizeFromBase(g, base, p)
	if loc.IndexAligned {
		t.Fatal("structural delta must not promise index alignment")
	}
	iopts := opts
	iopts.Localize = loc
	iopts.BaseAssign = base.Shards.Assign
	res, err := shard.Sparsify(ctx, p.G, iopts)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Shards
	if !st.Incremental || !st.StitchLocalized {
		t.Fatalf("Incremental=%v StitchLocalized=%v, want both true", st.Incremental, st.StitchLocalized)
	}
	if checked := cleanCutCompat(t, p.G, res, loc.BaseSub, p.Touched); checked == 0 {
		t.Fatal("no clean-clean cut edges checked; fixture needs retuning")
	}
	if !res.Sparsifier.Connected() {
		t.Fatal("localized sparsifier is disconnected after structural delta")
	}
}

func TestLocalizedStitchCutEdgeRemoval(t *testing.T) {
	// Remove a bridge the base stitch retained — the forest must be
	// re-decided and the result stay connected (repair sweep territory).
	g := threeCommunities(14, 11)
	ctx := context.Background()
	opts := shard.Options{Shards: 3, Sparsify: sparsify.Options{Seed: 5}}
	base, err := shard.Sparsify(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	assign := base.Shards.Assign
	// Find a retained cut edge.
	cut := -1
	for _, ei := range base.EdgeIdx {
		ed := g.Edges[ei]
		if assign[ed.U] != assign[ed.V] {
			cut = ei
			break
		}
	}
	if cut < 0 {
		t.Fatal("base sparsifier retained no cut edges")
	}
	d := graph.Delta{Remove: [][2]int{{g.Edges[cut].U, g.Edges[cut].V}}}
	p, err := d.ApplyPatch(g)
	if err != nil {
		t.Fatal(err)
	}
	loc := localizeFromBase(g, base, p)
	iopts := opts
	iopts.Localize = loc
	iopts.BaseAssign = assign
	res, err := shard.Sparsify(ctx, p.G, iopts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shards.StitchLocalized {
		t.Fatal("stitch did not run localized")
	}
	if !res.Sparsifier.Connected() {
		t.Fatal("sparsifier disconnected after removing a retained cut edge")
	}
}

func TestLocalizedStitchCutEdgeReweight(t *testing.T) {
	// Reweighting a cut edge dirties both endpoint clusters; the dirty
	// sweep must re-decide that seam while clean seams stay bit-compatible.
	g := threeCommunities(14, 11)
	ctx := context.Background()
	opts := shard.Options{Shards: 3, Sparsify: sparsify.Options{Seed: 5}}
	base, err := shard.Sparsify(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	assign := base.Shards.Assign
	cut := -1
	for ei, ed := range g.Edges {
		if assign[ed.U] != assign[ed.V] {
			cut = ei
			break
		}
	}
	if cut < 0 {
		t.Fatal("no cut edges in fixture")
	}
	d := graph.Delta{Set: []graph.Edge{{U: g.Edges[cut].U, V: g.Edges[cut].V, W: g.Edges[cut].W * 3}}}
	p, err := d.ApplyPatch(g)
	if err != nil {
		t.Fatal(err)
	}
	loc := localizeFromBase(g, base, p)
	iopts := opts
	iopts.Localize = loc
	iopts.BaseAssign = assign
	res, err := shard.Sparsify(ctx, p.G, iopts)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Shards
	if !st.StitchLocalized {
		t.Fatal("stitch did not run localized")
	}
	// Both endpoint clusters are dirty; with 3 shards at most one is clean,
	// so index adoption (still legal: delta is non-structural) covers it.
	if st.DirtyClusters < 2 {
		t.Fatalf("DirtyClusters = %d, want ≥ 2 (cut edge dirties both sides)", st.DirtyClusters)
	}
	if !res.Sparsifier.Connected() {
		t.Fatal("sparsifier disconnected after cut reweight")
	}
	// A tripled-weight cut edge must be in the new sparsifier: it heads
	// the dirty sweep's weight order.
	if !res.InSub[cut] {
		t.Error("reweighted (tripled) cut edge was not retained by the dirty sweep")
	}
}

// TestPlanFromAssignReweightLazy: the lazy reweight-only plan agrees
// with the full PlanFromAssign on everything it materializes — same
// cluster count, vertex lists, edge counts, and cut-edge set — while
// extracting local subgraphs only for dirty clusters.
func TestPlanFromAssignReweightLazy(t *testing.T) {
	g := threeCommunities(14, 11)
	ctx := context.Background()
	base, err := shard.Sparsify(ctx, g, shard.Options{Shards: 3, Sparsify: sparsify.Options{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	assign := base.Shards.Assign
	dirtyVerts := []int{0, 1, 2}

	full, err := shard.PlanFromAssign(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := shard.PlanFromAssignReweight(g, assign, dirtyVerts)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.K != full.K {
		t.Fatalf("lazy K = %d, full K = %d", lazy.K, full.K)
	}
	if len(lazy.CutEdges) != len(full.CutEdges) {
		t.Fatalf("lazy cut %d edges, full cut %d", len(lazy.CutEdges), len(full.CutEdges))
	}
	for i := range full.CutEdges {
		if lazy.CutEdges[i] != full.CutEdges[i] {
			t.Fatalf("cut edge %d: lazy %d, full %d", i, lazy.CutEdges[i], full.CutEdges[i])
		}
	}
	dirty := make([]bool, lazy.K)
	for _, v := range dirtyVerts {
		dirty[assign[v]] = true
	}
	sawClean := false
	for ci := range full.Clusters {
		fc, lc := &full.Clusters[ci], &lazy.Clusters[ci]
		if len(lc.Vertices) != len(fc.Vertices) {
			t.Fatalf("cluster %d: lazy %d vertices, full %d", ci, len(lc.Vertices), len(fc.Vertices))
		}
		if lc.LocalEdges() != fc.Local.M() {
			t.Fatalf("cluster %d: lazy %d edges, full %d", ci, lc.LocalEdges(), fc.Local.M())
		}
		if dirty[ci] {
			if lc.Local == nil {
				t.Fatalf("dirty cluster %d not materialized", ci)
			}
			if lc.Local.M() != fc.Local.M() || lc.Local.N != fc.Local.N {
				t.Fatalf("dirty cluster %d: lazy %d/%d, full %d/%d",
					ci, lc.Local.N, lc.Local.M(), fc.Local.N, fc.Local.M())
			}
		} else {
			sawClean = true
			if lc.Local != nil {
				t.Fatalf("clean cluster %d was materialized", ci)
			}
		}
	}
	if !sawClean {
		t.Fatal("no clean clusters; fixture needs retuning")
	}
}

package shard_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/sparsify"
)

// baseSubFunc is the endpoint-membership oracle of the base build:
// whether the undirected edge (u, v) was in the base sparsifier.
func baseSubFunc(res *sparsify.Result) func(u, v int) bool {
	return func(u, v int) bool {
		_, ok := res.Sparsifier.EdgeBetween(u, v)
		return ok
	}
}

// localizeFromBase assembles the Localize handoff exactly the way the
// core update path does, for every delta kind.
func localizeFromBase(res *sparsify.Result, p *graph.Patch) *shard.Localize {
	return &shard.Localize{
		DirtyVertices: p.Touched,
		BaseSub:       res.Sparsifier,
		BaseKeys:      res.Shards.ClusterKeys,
	}
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

	loc := localizeFromBase(base, p)
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
	// Every clean cluster must adopt its base edges (Reused without a
	// cache configured proves the adoption path ran).
	if want := st.Shards - st.DirtyClusters; st.ClustersReused != want {
		t.Fatalf("ClustersReused = %d, want %d (clean clusters adopt their base edges)", st.ClustersReused, want)
	}
	if checked := cleanCutCompat(t, p.G, res, baseSubFunc(base), p.Touched); checked == 0 {
		t.Fatal("no clean-clean cut edges checked; fixture needs retuning")
	}
	if st.CutAdopted == 0 {
		t.Fatal("CutAdopted = 0: no clean-clean stitch decisions were adopted")
	}
	if !res.Sparsifier.Connected() {
		t.Fatal("localized sparsifier is disconnected")
	}
	// Adoption means every clean cluster's intra-cluster sparsifier edges
	// match the base exactly — not just the cut seams.
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

	loc := localizeFromBase(base, p)
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
	if checked := cleanCutCompat(t, p.G, res, baseSubFunc(base), p.Touched); checked == 0 {
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
	loc := localizeFromBase(base, p)
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
	loc := localizeFromBase(base, p)
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
	// and it adopts its base edges.
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

// TestPlanFromAssignLazy: a plan with a dirty subset agrees with the
// every-cluster-dirty plan (nil dirty vertices) on everything it
// materializes — same cluster count, vertex lists, edge counts, and
// cut-edge set — while extracting local subgraphs only for dirty
// clusters.
func TestPlanFromAssignLazy(t *testing.T) {
	g := threeCommunities(14, 11)
	ctx := context.Background()
	base, err := shard.Sparsify(ctx, g, shard.Options{Shards: 3, Sparsify: sparsify.Options{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	assign := base.Shards.Assign
	dirtyVerts := []int{0, 1, 2}

	full, err := shard.PlanFromAssign(g, assign, nil)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := shard.PlanFromAssign(g, assign, dirtyVerts)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.K != full.K {
		t.Fatalf("lazy K = %d, full K = %d", lazy.K, full.K)
	}
	if !slices.Equal(lazy.CutEdges, full.CutEdges) {
		t.Fatalf("lazy cut %v, full cut %v", lazy.CutEdges, full.CutEdges)
	}
	sawClean := false
	for ci := range full.Clusters {
		fc, lc := &full.Clusters[ci], &lazy.Clusters[ci]
		if !full.Dirty[ci] || fc.Local == nil {
			t.Fatalf("cluster %d of the nil-dirty plan is not dirty and materialized", ci)
		}
		if !slices.Equal(lc.Vertices, fc.Vertices) {
			t.Fatalf("cluster %d: lazy vertices differ from full", ci)
		}
		if lc.LocalEdges() != fc.Local.M() {
			t.Fatalf("cluster %d: lazy %d edges, full %d", ci, lc.LocalEdges(), fc.Local.M())
		}
		want := false
		for _, v := range dirtyVerts {
			want = want || assign[v] == ci
		}
		if lazy.Dirty[ci] != want {
			t.Fatalf("cluster %d: lazy Dirty = %v, want %v", ci, lazy.Dirty[ci], want)
		}
		if lazy.Dirty[ci] {
			if lc.Local == nil {
				t.Fatalf("dirty cluster %d not materialized", ci)
			}
			if lc.Local.M() != fc.Local.M() || lc.Local.N != fc.Local.N || !slices.Equal(lc.GlobalEdge, fc.GlobalEdge) {
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

// TestCleanClusterNeedsBase: a clean cluster has no local graph to build,
// so Run must refuse a plan with one when there is no base build to adopt
// from, and must fail — not stitch a hole — when the dirty vertices miss
// an edit inside a cluster.
func TestCleanClusterNeedsBase(t *testing.T) {
	g := threeCommunities(14, 11)
	ctx := context.Background()
	opts := shard.Options{Shards: 3, Sparsify: sparsify.Options{Seed: 5}}
	base, err := shard.Sparsify(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	assign := base.Shards.Assign
	plan, err := shard.PlanFromAssign(g, assign, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Run(ctx, g, plan, opts); err == nil {
		t.Fatal("Run built a plan with clean clusters and no Localize")
	}

	rm := -1
	for _, ei := range base.EdgeIdx {
		if ed := g.Edges[ei]; assign[ed.U] == assign[ed.V] {
			rm = ei
			break
		}
	}
	p, err := graph.Delta{Remove: [][2]int{{g.Edges[rm].U, g.Edges[rm].V}}}.ApplyPatch(g)
	if err != nil {
		t.Fatal(err)
	}
	loc := localizeFromBase(base, p)
	loc.DirtyVertices = []int{}
	iopts := opts
	iopts.Localize = loc
	iopts.BaseAssign = assign
	if _, err := shard.Sparsify(ctx, p.G, iopts); err == nil {
		t.Fatal("Sparsify adopted a base edge the graph no longer has")
	}
}

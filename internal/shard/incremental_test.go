package shard_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/sparsify"
)

// TestClusterKeyStability: the cluster fingerprint must be a function of
// the cluster's content, not of the input edge order — a resubmitted
// graph whose edge list arrived permuted must hit the cache — while any
// weight change, seed change, or config change must miss.
func TestClusterKeyStability(t *testing.T) {
	g := threeCommunities(10, 7)
	plan, err := shard.NewPlan(context.Background(), g, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}

	// The same graph from a shuffled edge list, re-planned from the
	// retained assignment: every cluster fingerprint must match.
	rng := rand.New(rand.NewSource(3))
	shuffled := append([]graph.Edge(nil), g.Edges...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	g2 := graph.MustNew(g.N, shuffled)
	plan2, err := shard.PlanFromAssign(g2, plan.Assign, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.K != plan.K {
		t.Fatalf("replanned K = %d, want %d", plan2.K, plan.K)
	}
	opts := sparsify.Options{Seed: 1}
	for ci := range plan.Clusters {
		k1 := shard.ClusterKey(&plan.Clusters[ci], 1, opts)
		k2 := shard.ClusterKey(&plan2.Clusters[ci], 1, opts)
		if k1 != k2 {
			t.Fatalf("cluster %d fingerprint changed under edge permutation:\n  %s\n  %s", ci, k1, k2)
		}
	}

	// A single weight change must change exactly that cluster's key.
	var target graph.Edge
	targetCluster := -1
	for _, e := range g.Edges {
		if plan.Assign[e.U] == plan.Assign[e.V] {
			target, targetCluster = e, plan.Assign[e.U]
			break
		}
	}
	if targetCluster < 0 {
		t.Fatal("no intra-cluster edge found")
	}
	g3, err := graph.Delta{Set: []graph.Edge{{U: target.U, V: target.V, W: target.W * 2}}}.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	plan3, err := shard.PlanFromAssign(g3, plan.Assign, nil)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range plan.Clusters {
		k1 := shard.ClusterKey(&plan.Clusters[ci], 1, opts)
		k3 := shard.ClusterKey(&plan3.Clusters[ci], 1, opts)
		if ci == targetCluster && k1 == k3 {
			t.Fatalf("cluster %d fingerprint unchanged after weight change", ci)
		}
		if ci != targetCluster && k1 != k3 {
			t.Fatalf("untouched cluster %d fingerprint changed: %s vs %s", ci, k1, k3)
		}
	}

	// Seed and config sensitivity.
	cl := &plan.Clusters[0]
	if shard.ClusterKey(cl, 1, opts) == shard.ClusterKey(cl, 2, opts) {
		t.Fatal("fingerprint ignores the seed")
	}
	if shard.ClusterKey(cl, 1, opts) == shard.ClusterKey(cl, 1, sparsify.Options{Seed: 1, Alpha: 0.2}) {
		t.Fatal("fingerprint ignores the config")
	}
}

// TestPlanFromAssignIsIdentity: replanning from a retained assignment of
// an unchanged graph must preserve cluster ids exactly (they drive the
// per-cluster seeds, and therefore the fingerprints).
func TestPlanFromAssignIsIdentity(t *testing.T) {
	g := threeCommunities(12, 5)
	plan, err := shard.NewPlan(context.Background(), g, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	again, err := shard.PlanFromAssign(g, plan.Assign, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.K != plan.K {
		t.Fatalf("K = %d, want %d", again.K, plan.K)
	}
	for v := range plan.Assign {
		if plan.Assign[v] != again.Assign[v] {
			t.Fatalf("vertex %d reassigned %d → %d", v, plan.Assign[v], again.Assign[v])
		}
	}
	if len(again.CutEdges) != len(plan.CutEdges) {
		t.Fatalf("cut edges %d, want %d", len(again.CutEdges), len(plan.CutEdges))
	}
}

// TestIncrementalEquivalenceGate: after a small delta, the incremental
// rebuild must (a) reuse every untouched cluster, and (b) solve within
// 1.2× the PCG iterations of a cold sharded build of the same updated
// graph — the acceptance bound on the staleness the reuse tolerates.
func TestIncrementalEquivalenceGate(t *testing.T) {
	ctx := context.Background()
	g := threeCommunities(16, 11)
	cfg := core.Config{
		Sparsify:       sparsify.Options{Seed: 1},
		Tol:            1e-6,
		ShardThreshold: g.N / 4,
		Shards:         3,
	}
	base, err := core.NewSparsifier(ctx, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Sharded() {
		t.Fatal("base did not take the sharded path")
	}

	// Reweight a handful of edges inside one community.
	var d graph.Delta
	assign := base.ShardStats().Assign
	dirty := -1
	for _, e := range g.Edges {
		if assign[e.U] == assign[e.V] && (dirty == -1 || assign[e.U] == dirty) {
			dirty = assign[e.U]
			d.Set = append(d.Set, graph.Edge{U: e.U, V: e.V, W: e.W * 1.5})
			if len(d.Set) == 5 {
				break
			}
		}
	}
	inc, err := base.Update(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	st := inc.ShardStats()
	if st == nil || !st.Incremental {
		t.Fatalf("update did not take the incremental path: %+v", st)
	}
	if st.ClustersReused == 0 || st.ClustersReused < st.Shards-1 {
		t.Fatalf("reused %d of %d clusters, want all but the dirty one", st.ClustersReused, st.Shards)
	}

	newG, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.NewSparsifier(ctx, newG, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	b := make([]float64, g.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	cs, err := cold.Solve(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	is, err := inc.Solve(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Converged || !is.Converged {
		t.Fatalf("convergence: cold=%v incremental=%v", cs.Converged, is.Converged)
	}
	if float64(is.Iterations) > 1.2*float64(cs.Iterations) {
		t.Fatalf("incremental PCG took %d iterations, cold sharded %d — over the 1.2x gate",
			is.Iterations, cs.Iterations)
	}
	t.Logf("PCG iterations: cold=%d incremental=%d (reused %d/%d clusters, %d factors)",
		cs.Iterations, is.Iterations, st.ClustersReused, st.Shards, inc.PrecondStats().FactorsReused)
}

// TestIncrementalRemovalAndAddition: structural deltas (edge removed,
// edge added) flow through the incremental path and still produce a
// connected, solvable sparsifier.
func TestIncrementalStructuralDelta(t *testing.T) {
	ctx := context.Background()
	g := threeCommunities(12, 3)
	cfg := core.Config{
		Sparsify:       sparsify.Options{Seed: 1},
		Tol:            1e-6,
		ShardThreshold: g.N / 4,
		Shards:         3,
	}
	base, err := core.NewSparsifier(ctx, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assign := base.ShardStats().Assign
	// Remove one intra-cluster edge that cannot disconnect its community
	// (grid interiors are 2-connected) and add a fresh shortcut.
	var rm graph.Edge
	for _, e := range g.Edges {
		if assign[e.U] == assign[e.V] {
			rm = e
			break
		}
	}
	d := graph.Delta{
		Remove: [][2]int{{rm.U, rm.V}},
		Set:    []graph.Edge{{U: 0, V: g.N - 1, W: 0.5}},
	}
	inc, err := base.Update(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N)
	b[0], b[g.N-1] = 1, -1
	sol, err := inc.Solve(ctx, b)
	if err != nil || !sol.Converged {
		t.Fatalf("solve through updated handle: converged=%v err=%v", sol != nil && sol.Converged, err)
	}
	if inc.N() != g.N {
		t.Fatalf("updated handle has %d vertices, want %d", inc.N(), g.N)
	}
}

// TestRebalanceGuardForcesReplan: a delta that piles enough new edges
// into one retained cluster to dwarf its base-build size must abandon
// the stale plan for a fresh build — and the result must NOT be marked
// Incremental (operators read that flag as "a prior plan was reused").
// The guard compares against the cluster's own base size because the
// M/K fair-share bound alone is unreachable at small K.
func TestRebalanceGuardForcesReplan(t *testing.T) {
	ctx := context.Background()
	g := threeCommunities(12, 3)
	cfg := core.Config{
		Sparsify:       sparsify.Options{Seed: 1},
		Tol:            1e-6,
		ShardThreshold: g.N / 4,
		Shards:         3,
	}
	base, err := core.NewSparsifier(ctx, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assign := base.ShardStats().Assign

	// Densify one community far past 4x its base edge count: add every
	// absent pair among its first 80 vertices (~3160 edges vs ~260 base).
	var cl0 []int
	for v, c := range assign {
		if c == assign[0] {
			cl0 = append(cl0, v)
			if len(cl0) == 80 {
				break
			}
		}
	}
	var d graph.Delta
	for i := 0; i < len(cl0); i++ {
		for j := i + 1; j < len(cl0); j++ {
			if _, ok := g.EdgeBetween(cl0[i], cl0[j]); !ok {
				d.Set = append(d.Set, graph.Edge{U: cl0[i], V: cl0[j], W: 1})
			}
		}
	}
	up, err := base.Update(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	st := up.ShardStats()
	if st == nil {
		t.Fatal("replan lost shard telemetry")
	}
	if st.Incremental {
		t.Fatalf("rebalance replan still marked Incremental (reused %d/%d)", st.ClustersReused, st.Shards)
	}
	// And a solve through the replanned handle works.
	b := make([]float64, g.N)
	b[0], b[g.N-1] = 1, -1
	if sol, err := up.Solve(ctx, b); err != nil || !sol.Converged {
		t.Fatalf("solve after replan: converged=%v err=%v", sol != nil && sol.Converged, err)
	}
}

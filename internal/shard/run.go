package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/sparsify"
)

// tinyClusterEdges is the local edge count below which a cluster is kept
// whole instead of sparsified: on a handful of edges the spanning tree IS
// most of the graph and the scoring machinery costs more than it removes.
const tinyClusterEdges = 32

// DefaultMaxCutFraction is the expander-guard ceiling when
// Options.MaxCutFraction is unset: a plan whose cut edges exceed this
// share of the input is abandoned in favour of a monolithic build.
const DefaultMaxCutFraction = 0.5

// Sparsify is the one sharded entry point — the large-graph counterpart
// of sparsify.SparsifyContext, returning the same Result shape (with
// Result.Shards telemetry attached). It plans, runs one expander guard,
// then Run:
//
//   - with Options.BaseAssign set, the plan is rebuilt from that retained
//     assignment (PlanFromAssign, dirty clusters from Options.Localize),
//     so clean clusters keep their ids and adopt the base build's edges,
//     and the result reports Incremental. A delta that grew any retained
//     cluster past DefaultRebalanceFactor × (M/K) local edges (or past
//     that multiple of its own base-build size) abandons the stale plan
//     for a fresh one: bounded per-cluster work is the point of
//     sharding;
//   - without it, NewPlan partitions the graph.
//
// The expander guard: on graphs with no good cuts (random geometric at
// high radius, social-style expanders) the recursive bisection produces
// a plan whose cut-edge set rivals the graph itself, and the stitch —
// a recovery round over the cut — would cost more than the per-cluster
// parallelism saves while degrading quality. When the planned cut
// fraction exceeds Options.MaxCutFraction, the build falls back to the
// monolithic path; the decision (and the offending fraction) is recorded
// in Result.Shards with Abandoned set.
func Sparsify(ctx context.Context, g *graph.Graph, opts Options) (*sparsify.Result, error) {
	var plan *Plan
	var err error
	reused := opts.BaseAssign != nil
	if reused {
		var dirtyVertices []int // nil: every cluster dirty
		if loc := opts.localize(); loc != nil {
			dirtyVertices = loc.DirtyVertices
		}
		plan, err = PlanFromAssign(g, opts.BaseAssign, dirtyVertices)
		if err == nil && outgrown(g, plan, opts) {
			// Fresh plan, full build: deliberately NOT marked Incremental
			// — callers and operators read that flag as "a prior plan was
			// reused", and a rebalance replan pays cold-build cost. The
			// base decisions belong to the abandoned plan; a fresh plan
			// has none to adopt.
			opts.BaseAssign, opts.Localize = nil, nil
			reused = false
			plan, err = NewPlan(ctx, g, opts)
		}
	} else {
		plan, err = NewPlan(ctx, g, opts)
	}
	if err != nil {
		return nil, err
	}
	maxCut := opts.MaxCutFraction
	if maxCut == 0 {
		maxCut = DefaultMaxCutFraction
	}
	cutFrac := cutFractionOf(g, plan)
	if maxCut > 0 && cutFrac > maxCut {
		res, err := sparsify.SparsifyContext(ctx, g, opts.Sparsify)
		if err != nil {
			return nil, err
		}
		// Abandoned into a monolithic build: nothing of a retained plan
		// was reused, so Incremental stays false.
		res.Shards = &sparsify.ShardStats{
			Shards:         plan.K,
			FallbackSplits: plan.FallbackSplits,
			CutEdges:       len(plan.CutEdges),
			CutFraction:    cutFrac,
			Abandoned:      true,
			PlanTime:       plan.PlanTime,
		}
		return res, nil
	}
	res, err := Run(ctx, g, plan, opts)
	if err != nil {
		return nil, err
	}
	res.Shards.Incremental = reused
	return res, nil
}

// Run sparsifies the plan's dirty clusters concurrently on a bounded
// worker pool and stitches the results (see stitch):
//
//  1. every intra-cluster sparsifier edge survives;
//  2. a maximum-weight spanning forest of the dirty-incident cut edges
//     is retained, so the stitched subgraph is connected (each
//     per-cluster sparsifier is connected, and the forest connects the
//     cluster quotient graph);
//  3. the remaining dirty-incident cut edges are re-scored with the
//     truncated trace-reduction metric (eq. 20) against the stitched
//     subgraph in one recovery round, and the best are re-admitted.
//
// The plan's dirty mask (Plan.Dirty) is the only thing that distinguishes
// a cold build from a delta rebuild. A clean cluster adopts the base
// build's intra-cluster edges (Options.Localize) under its base key. A
// dirty cluster is fingerprinted: if the key still equals its base key it
// adopts the same way, otherwise it is fetched from Options.Cache or
// built. A clean cluster needs a base build to adopt from, so a plan with
// one requires Options.Localize (and a method other than ER).
func Run(ctx context.Context, g *graph.Graph, plan *Plan, opts Options) (*sparsify.Result, error) {
	if plan == nil || plan.K < 1 || len(plan.Dirty) != plan.K {
		return nil, fmt.Errorf("shard: empty or malformed plan")
	}
	o := opts.Sparsify
	total := o.Workers
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	workers := min(total, plan.K)

	// ER clusters return importance-reweighted edges, which the
	// index-free endpoint-pair representation of the cluster cache
	// cannot carry — so ER builds every cluster fresh, and collects the
	// weight overrides here.
	// Clusters write only their own edge indices, so the concurrent
	// stores never collide. For the same reason ER builds adopt no base
	// decisions: every cluster is dirty.
	erMode := o.Method == sparsify.ER
	var reweight []float64
	if erMode {
		reweight = make([]float64, g.M())
	}
	loc := opts.localize()
	if loc != nil && loc.BaseSub.N != g.N {
		return nil, fmt.Errorf("shard: base sparsifier has %d vertices, graph has %d", loc.BaseSub.N, g.N)
	}
	dirtyCount := 0
	for ci, d := range plan.Dirty {
		if d {
			dirtyCount++
		} else if loc == nil || ci >= len(loc.BaseKeys) {
			return nil, fmt.Errorf("shard: cluster %d is clean but no base build covers it", ci)
		}
	}

	buildStart := time.Now()
	inSub := make([]bool, g.M())
	perShard := make([]sparsify.ShardBuild, plan.K)
	phases := make([]sparsify.Stats, plan.K)
	errs := make([]error, plan.K)
	keys := make([]string, plan.K)

	// Each worker owns the clusters it pulls. The cores the pool leaves
	// idle go to the clusters being built: each gets total/built scoring
	// workers, so a delta's one dirty cluster scores on every core while
	// a cold build with K ≥ cores keeps one per cluster. Scores do not
	// depend on the worker count, so neither does the sparsifier.
	// Non-tiny clusters go through the Dispatcher when one is configured.
	perCluster := clusterWorkers(o.Method, total, dirtyCount)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range next {
				cl := &plan.Clusters[ci]
				if !plan.Dirty[ci] {
					keys[ci] = loc.BaseKeys[ci]
					if !adoptCluster(g, cl, basePairs(plan, ci, loc.BaseSub), inSub, &perShard[ci]) {
						errs[ci] = fmt.Errorf("shard: clean cluster %d: a base sparsifier edge is not in the graph; the dirty vertices do not cover the delta", ci)
					}
					continue
				}
				seed := clusterSeed(o.Seed, ci)
				keys[ci] = ClusterKey(cl, seed, o)
				if loc != nil && ci < len(loc.BaseKeys) && keys[ci] == loc.BaseKeys[ci] &&
					adoptCluster(g, cl, basePairs(plan, ci, loc.BaseSub), inSub, &perShard[ci]) {
					continue
				}
				if opts.Cache != nil && !erMode {
					if pairs, ok := opts.Cache.GetCluster(keys[ci]); ok && adoptCluster(g, cl, pairs, inSub, &perShard[ci]) {
						continue
					}
				}
				perShard[ci].Vertices = cl.Local.N
				perShard[ci].Edges = cl.Local.M()
				if cl.Local.M() <= tinyClusterEdges {
					// On a handful of edges the spanning tree IS most of
					// the graph; keep the cluster whole.
					start := time.Now()
					for _, ge := range cl.GlobalEdge {
						inSub[ge] = true
					}
					perShard[ci].SparsifierEdges = cl.Local.M()
					perShard[ci].Time = time.Since(start)
					continue
				}
				start := time.Now()
				co := o
				co.Workers = perCluster
				// Decorrelate per-cluster randomness while keeping the
				// whole build reproducible from the caller's seed.
				co.Seed = seed
				req := &ClusterRequest{Index: ci, Cluster: cl, Opts: co}
				var cres *ClusterResult
				if opts.Dispatcher != nil {
					cres, errs[ci] = opts.Dispatcher.Dispatch(ctx, req)
				} else {
					cres, errs[ci] = BuildCluster(ctx, req)
				}
				if errs[ci] != nil {
					continue
				}
				if !adoptWeighted(g, cres, inSub, reweight) {
					// A dispatcher-validated result should make this
					// unreachable; failing loudly beats silently stitching
					// a hole into the sparsifier.
					errs[ci] = fmt.Errorf("shard: cluster %d: dispatched result contains edges not in the graph", ci)
					continue
				}
				phases[ci] = cres.Stats
				perShard[ci].SparsifierEdges = len(cres.Edges)
				perShard[ci].Time = time.Since(start)
				if opts.Cache != nil && !erMode {
					opts.Cache.AddCluster(keys[ci], cres.Edges)
				}
			}
		}()
	}
	for ci := range plan.Clusters {
		next <- ci
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	buildTime := time.Since(buildStart)

	stitchStart := time.Now()
	retained, recovered, adopted, repaired, err := stitch(ctx, g, plan, inSub, loc, o)
	if err != nil {
		return nil, err
	}

	st := &sparsify.ShardStats{
		Shards:          plan.K,
		FallbackSplits:  plan.FallbackSplits,
		CutEdges:        len(plan.CutEdges),
		CutFraction:     cutFractionOf(g, plan),
		CutRetained:     retained,
		CutRecovered:    recovered,
		StitchLocalized: loc != nil,
		CutAdopted:      adopted,
		CutRepaired:     repaired,
		PlanTime:        plan.PlanTime,
		BuildTime:       buildTime,
		StitchTime:      time.Since(stitchStart),
		Assign:          plan.Assign,
		ClusterKeys:     keys,
		PerShard:        perShard,
	}
	if loc != nil {
		st.DirtyClusters = dirtyCount
		st.Dirty = plan.Dirty
	}
	for i := range perShard {
		if perShard[i].Reused {
			st.ClustersReused++
		}
	}

	res := &sparsify.Result{
		InSub:    inSub,
		Shift:    lap.Shift(g, o.ShiftRel),
		Shards:   st,
		Reweight: reweight,
	}
	for e, in := range inSub {
		if in {
			res.EdgeIdx = append(res.EdgeIdx, e)
		}
	}
	res.Sparsifier = sparsify.WeightedSubgraph(g, res.EdgeIdx, res.Reweight)
	res.Stats.Total = plan.PlanTime + st.BuildTime + st.StitchTime
	res.Stats.EdgesAdded = len(res.EdgeIdx) - (g.N - 1)
	// Phase times aggregate CPU across clusters (they exceed the wall
	// clock when clusters built concurrently); Rounds reports the deepest
	// cluster's densification depth.
	for _, ph := range phases {
		res.Stats.TreeTime += ph.TreeTime
		res.Stats.ScoreTime += ph.ScoreTime
		res.Stats.FactorTime += ph.FactorTime
		res.Stats.ERTime += ph.ERTime
		res.Stats.ERSketches += ph.ERSketches
		if ph.Rounds > res.Stats.Rounds {
			res.Stats.Rounds = ph.Rounds
		}
	}
	if res.Stats.Rounds == 0 {
		res.Stats.Rounds = 1
	}
	return res, nil
}

// clusterWorkers is the scoring worker count each built cluster gets
// when total workers serve built dirty clusters: max(1, total/built).
// ER clusters stay at 1 because the resistance sketches round
// differently under a different worker count.
func clusterWorkers(m sparsify.Method, total, built int) int {
	if m == sparsify.ER || built < 1 {
		return 1
	}
	return max(1, total/built)
}

// cutFractionOf returns the plan's cut-edge share of the input edges.
func cutFractionOf(g *graph.Graph, plan *Plan) float64 {
	if g.M() == 0 {
		return 0
	}
	return float64(len(plan.CutEdges)) / float64(g.M())
}

// basePairs lists the base build's sparsifier edges of cluster ci as
// global endpoint pairs: the base sparsifier's edges with both endpoints
// in the cluster.
func basePairs(plan *Plan, ci int, base *graph.Graph) [][2]int {
	var pairs [][2]int
	for _, v := range plan.Clusters[ci].Vertices {
		for p := base.AdjStart[v]; p < base.AdjStart[v+1]; p++ {
			if u := base.AdjTarget[p]; u > v && plan.Assign[u] == ci {
				pairs = append(pairs, [2]int{v, u})
			}
		}
	}
	return pairs
}

// adoptCluster marks a cluster's adopted sparsifier (global endpoint
// pairs, from the cluster cache or the base build) into the membership
// slice. A pair that no longer resolves to an edge aborts the adoption
// before anything is marked.
func adoptCluster(g *graph.Graph, cl *Cluster, pairs [][2]int, inSub []bool, sb *sparsify.ShardBuild) bool {
	if !adoptPairs(g, pairs, inSub) {
		return false
	}
	*sb = sparsify.ShardBuild{Vertices: len(cl.Vertices), Edges: cl.LocalEdges(), SparsifierEdges: len(pairs), Reused: true}
	return true
}

// adoptWeighted is adoptPairs plus the weight overrides a fresh ER
// cluster build carries: after the all-or-nothing membership marking,
// positive per-edge weights are recorded into the global reweight
// slice (when the caller is collecting one).
func adoptWeighted(g *graph.Graph, cres *ClusterResult, inSub []bool, reweight []float64) bool {
	if !adoptPairs(g, cres.Edges, inSub) {
		return false
	}
	if cres.Weights == nil || reweight == nil {
		return true
	}
	for i, p := range cres.Edges {
		if w := cres.Weights[i]; w > 0 {
			e, _ := g.EdgeBetween(p[0], p[1])
			reweight[e] = w
		}
	}
	return true
}

// adoptPairs resolves global endpoint pairs to edge indices and marks
// them into the membership slice, all-or-nothing: a pair that does not
// resolve aborts before anything is marked. Each cluster's pairs touch
// only its own edge indices, so concurrent workers never write the same
// element.
func adoptPairs(g *graph.Graph, pairs [][2]int, inSub []bool) bool {
	idx := make([]int, len(pairs))
	for i, p := range pairs {
		e, ok := g.EdgeBetween(p[0], p[1])
		if !ok {
			return false
		}
		idx[i] = e
	}
	for _, e := range idx {
		inSub[e] = true
	}
	return true
}

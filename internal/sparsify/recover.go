package sparsify

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chol"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/spai"
)

// ShardStats records what the partition-parallel sharded pipeline
// (internal/shard) did to produce a Result. It lives here, on the Result,
// so the handle layer and the serving engine can report per-shard
// telemetry without importing the shard package (which itself imports
// this one).
type ShardStats struct {
	// Shards is the number of clusters actually sparsified (after
	// disconnected planned clusters were split into components).
	Shards int
	// FallbackSplits counts recursive bisections that fell back from the
	// Fiedler split to the BFS ordering (slow or degenerate convergence).
	FallbackSplits int
	// CutEdges is the number of input edges crossing clusters.
	CutEdges int
	// CutRetained is how many cut edges the stitch kept as the
	// inter-cluster spanning structure (connectivity).
	CutRetained int
	// CutRecovered is how many further cut edges the global recovery
	// round re-admitted by truncated trace-reduction score.
	CutRecovered int

	PlanTime   time.Duration // partitioning (Fiedler/BFS bisection)
	BuildTime  time.Duration // per-cluster sparsification (wall clock)
	StitchTime time.Duration // forest + recovery round

	// Abandoned reports that the expander guard rejected the plan at
	// plan time — the cut fraction exceeded the configured ceiling, so
	// the build fell back to the monolithic path instead of paying the
	// stitch for nothing. When set, the remaining fields describe the
	// abandoned plan (so operators can see why), not a sharded build.
	Abandoned bool
	// CutFraction is the planned cut-edge share of the input edges —
	// the quantity the expander guard thresholds.
	CutFraction float64

	// Assign is the plan's per-vertex cluster assignment, threaded
	// through so the pencil can build the additive-Schwarz
	// preconditioner over the same clusters — and retained for the
	// handle's lifetime (it survives Compact) so an incremental Update
	// can map a delta's edges onto dirty clusters without replanning.
	// Nil when the plan was abandoned.
	Assign []int
	// ClusterKeys holds each cluster's fingerprint (shard.ClusterKey),
	// aligned with cluster ids. The pencil uses them to key per-cluster
	// Schwarz factors in the cluster cache; they survive Compact.
	ClusterKeys []string

	// Incremental reports the result came from a delta rebuild that
	// reused a prior plan; ClustersReused counts clusters whose cached
	// sparsifier was adopted verbatim instead of re-running Algorithm 2
	// (cold builds can also reuse when the cluster cache is shared).
	Incremental    bool
	ClustersReused int
	// StitchLocalized reports the stitch ran in localized mode: the
	// cut-edge forest and recovery round were restricted to cut edges
	// incident to dirty clusters, with the base build's stitch decisions
	// adopted verbatim on clean-clean cut edges (CutAdopted of them).
	// DirtyClusters is how many clusters the delta touched. CutRepaired
	// counts clean-clean cut edges the connectivity-repair sweep admitted
	// WITHOUT base membership — the one localized-stitch escape from the
	// dirty region, so a non-zero value disables dirty-region pencil
	// patching upstream.
	StitchLocalized bool
	CutAdopted      int
	CutRepaired     int
	DirtyClusters   int
	// ClustersRemote counts clusters whose sparsifier came back from a
	// remote fabric worker; the difference to Shards (minus reused and
	// tiny clusters) ran in-process — including remote dispatches that
	// degraded to the local fallback.
	ClustersRemote int

	PerShard []ShardBuild
}

// ShardBuild is one cluster's build telemetry.
type ShardBuild struct {
	Vertices        int
	Edges           int
	SparsifierEdges int
	Time            time.Duration
	// Reused reports the cluster's sparsifier came from the cluster
	// cache (fingerprint hit) instead of a fresh Algorithm-2 run.
	Reused bool
	// Remote reports the cluster was built by a remote fabric worker.
	Remote bool
}

// RecoverOffSubgraph runs one general densification round (eq. 20) of
// Algorithm 2 against an arbitrary subgraph: it factorizes the current
// subgraph's regularized Laplacian, builds the sparse approximate inverse
// of the Cholesky factor (Algorithm 1), scores the candidate off-subgraph
// edges by approximate truncated trace reduction, and admits up to quota
// of them in descending score order (with the endpoint-ball similarity
// exclusion — there is no global spanning tree here, so the feGRASS path
// corridor does not apply). inSub is updated in place; the return value is
// the number of edges admitted.
//
// This is the stitching hook of the sharded pipeline: after per-cluster
// sparsifiers and the inter-cluster spanning forest are in place, the
// remaining cut edges are re-scored against the stitched subgraph in one
// global recovery round.
func RecoverOffSubgraph(ctx context.Context, g *graph.Graph, inSub []bool, cand []int, quota int, opts Options) (int, error) {
	if quota <= 0 || len(cand) == 0 {
		return 0, nil
	}
	o := opts.withDefaults()
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("sparsify: recovery round: %w", err)
	}

	shift := lap.Shift(g, o.ShiftRel)
	ls := lap.Laplacian(subgraphView(g, inSub), shift)
	f, err := chol.New(ls, chol.Options{})
	if err != nil {
		return 0, fmt.Errorf("sparsify: factorizing stitched subgraph: %w", err)
	}
	z := spai.Compute(f.L, o.Delta)

	scores, err := scoreGeneralPhase(ctx, g, inSub, f, z, cand, o)
	if err != nil {
		return 0, fmt.Errorf("sparsify: recovery round: %w", err)
	}
	res := &Result{InSub: inSub}
	excl := newBallExcluder(g, nil, o.SimilarityHops)
	return selectEdges(g, res, excl, cand, scores, quota), nil
}

// RecoverOffSubgraphRegion is RecoverOffSubgraph restricted to the
// subgraph induced on a vertex region: the factorization, SPAI, scoring
// balls, and similarity exclusion all see only the region's edges, so
// the cost is O(region) instead of O(n) — the localized stitch's
// recovery round, where the region is the dirty clusters plus the
// endpoints of their cut edges. cand must list edges with both
// endpoints inside region; admitted edges are marked in inSub (indexed
// by g's edge ids) exactly as the global variant would.
//
// The scoring is an approximation of the global round twice over: the
// trace-reduction scores are computed against the region's stitched
// subgraph rather than the whole graph's, and the regularization shift
// is derived from the region. Both effects are confined to *which*
// dirty-region cut edges are re-admitted — clean-region decisions are
// adopted from the base build and never revisited.
func RecoverOffSubgraphRegion(ctx context.Context, g *graph.Graph, inSub []bool, region []int, cand []int, quota int, opts Options) (int, error) {
	if quota <= 0 || len(cand) == 0 {
		return 0, nil
	}

	localID := make([]int, g.N)
	for i := range localID {
		localID[i] = -1
	}
	for li, v := range region {
		localID[v] = li
	}

	// Extract the induced subgraph, keeping the local→global edge map so
	// admissions can be written back. Scanning each region vertex's
	// adjacency and keeping only the (lower local id → higher) direction
	// emits every induced edge once, already normalized for
	// FromNormalized.
	var edges []graph.Edge
	var globalEdge []int
	for li, v := range region {
		for p := g.AdjStart[v]; p < g.AdjStart[v+1]; p++ {
			lu := localID[g.AdjTarget[p]]
			if lu <= li { // outside the region (-1) or already emitted
				continue
			}
			e := g.AdjEdge[p]
			edges = append(edges, graph.Edge{U: li, V: lu, W: g.Edges[e].W})
			globalEdge = append(globalEdge, e)
		}
	}
	lg := graph.FromNormalized(len(region), edges)

	localInSub := make([]bool, len(edges))
	localOf := make(map[int]int, len(edges))
	for j, ge := range globalEdge {
		localInSub[j] = inSub[ge]
		localOf[ge] = j
	}
	localCand := make([]int, len(cand))
	for k, ge := range cand {
		lc, ok := localOf[ge]
		if !ok {
			return 0, fmt.Errorf("sparsify: region recovery candidate %d has an endpoint outside the region", ge)
		}
		localCand[k] = lc
	}

	n, err := RecoverOffSubgraph(ctx, lg, localInSub, localCand, quota, opts)
	if err != nil {
		return 0, err
	}
	// Candidates are off-subgraph by contract, so a set localInSub slot
	// means the round admitted that edge.
	for k, lc := range localCand {
		if localInSub[lc] {
			inSub[cand[k]] = true
		}
	}
	return n, nil
}

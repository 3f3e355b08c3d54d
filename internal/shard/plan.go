// Package shard is the partition-parallel sparsification pipeline for
// large graphs. The paper's trace-reduction sparsifier (Algorithm 2) is
// inherently local — β-layer BFS scoring (eq. 12) and γ-hop similarity
// exclusion — so edge importance is dominated by a small neighborhood
// (the same locality argument behind feGRASS's tree-resistance scoring
// [13] and effective-resistance sampling). The pipeline exploits that:
//
//   - Plan recursively bipartitions the graph into K balanced clusters
//     using the spectral (Fiedler) split of §4.3, falling back to a BFS
//     ordering when the spectral solve converges slowly or degenerates;
//   - Run sparsifies every dirty cluster independently on a bounded
//     worker pool, then stitches: each intra-cluster sparsifier edge
//     survives, a maximum-weight spanning forest of the dirty-incident
//     cut edges restores connectivity across clusters, and the remaining
//     ones are re-scored with the truncated trace-reduction metric
//     against the stitched subgraph in one recovery round
//     (sparsify.RecoverOffSubgraph). A cold build has every cluster
//     dirty; a delta rebuild (Options.Localize) only the clusters the
//     delta touched, and adopts the base build's decisions elsewhere.
//
// The result is a sparsify.Result indistinguishable from a monolithic
// build downstream (same pencil/factorization machinery), with per-shard
// telemetry attached as Result.Shards.
package shard

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chol"
	"repro/internal/dsu"
	"repro/internal/eig"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/solver"
	"repro/internal/sparsify"
	"repro/internal/tree"
)

// Options configures the sharded pipeline.
type Options struct {
	// Shards is the number of clusters K to plan (before disconnected
	// clusters are split into components). ≤ 0 derives K from Threshold
	// (ceil(N/Threshold)), or from the worker count when Threshold is
	// also unset.
	Shards int
	// Threshold is the target maximum cluster size used to derive K when
	// Shards is unset. It is typically the same vertex count above which
	// the caller routes graphs into this pipeline.
	Threshold int
	// FiedlerSteps is the number of inverse-power rounds per spectral
	// bisection (default 4; planning needs an ordering, not an
	// eigenvector, so a handful of rounds suffices).
	FiedlerSteps int
	// MaxCutFraction is the expander guard's ceiling on the planned
	// cut-edge share of the input edges: a plan cutting more than this
	// fraction is abandoned by Sparsify in favour of a monolithic build
	// (the stitch would cost more than the parallelism saves). 0 selects
	// DefaultMaxCutFraction; negative disables the guard.
	MaxCutFraction float64
	// RebalanceFactor is the retained plan's balance guard: a delta that
	// grows any retained cluster past RebalanceFactor × (M/K) local edges
	// forces a fresh plan instead of reusing the stale one (the whole
	// point of sharding is bounded per-cluster work). 0 selects
	// DefaultRebalanceFactor; negative disables the guard.
	RebalanceFactor float64
	// BaseAssign, when non-nil, is a retained per-vertex cluster
	// assignment (a base build's ShardStats.Assign): Sparsify rebuilds
	// the plan from it instead of replanning, so clusters a delta did not
	// touch keep their ids, seeds and fingerprints, and the result
	// reports Incremental. The rebalance guard may still replan.
	BaseAssign []int
	// BaseClusterEdges, set alongside BaseAssign, is each retained
	// cluster's local edge count at base-build time (aligned with cluster
	// ids). The rebalance guard compares growth against it — the M/K fair
	// share alone is unreachable when K ≤ RebalanceFactor, since no
	// cluster can exceed K× the average.
	BaseClusterEdges []int
	// Cache, when non-nil, is consulted before each cluster is sparsified
	// and populated afterward: a cluster whose fingerprint (ClusterKey)
	// hits adopts the cached sparsifier edges verbatim instead of
	// re-running Algorithm 2. This is what makes delta rebuilds cheap —
	// only dirty clusters miss.
	Cache ClusterCache
	// Dispatcher, when non-nil, executes each non-tiny, cache-missing
	// cluster build in place of BuildCluster, so a caller can time or
	// intercept it (see Dispatcher). Nil calls BuildCluster directly.
	Dispatcher Dispatcher
	// Localize, set for delta rebuilds, carries the base build's state:
	// it marks the clusters a delta touched dirty, so the stitch adopts
	// clean-region decisions verbatim and confines the forest sweep and
	// recovery round to cut edges near dirty clusters. Nil marks every
	// cluster dirty (a cold build). Ignored by ER builds (their
	// importance reweights are not adoptable by membership alone) and
	// dropped by the rebalance guard when it abandons the retained plan.
	Localize *Localize
	// Sparsify configures the per-cluster construction and the global
	// recovery round (zero value = the paper's parameters). Workers also
	// bounds the cluster-level pool.
	Sparsify sparsify.Options
}

// fiedlerMinVertices is the cluster size below which planning skips the
// spectral split entirely: factorizing a tree Laplacian and running
// inverse power iteration on a few dozen vertices costs more than the
// split quality buys.
const fiedlerMinVertices = 128

// fiedlerMaxVertices is the size above which planning goes straight to
// the BFS double-sweep ordering: tree-preconditioned inverse power
// iteration converges slowly on huge badly-conditioned pieces, and a
// plan that costs as much as the sparsification it enables is pointless.
// The top levels of a large recursion therefore split geometrically
// (layered BFS across the diameter) and the spectral split takes over
// once the pieces are mid-sized.
const fiedlerMaxVertices = 8000

// fiedlerPCGMaxIter caps each inner PCG solve of the planning Fiedler
// iteration. Planning needs a vertex ordering, not a converged
// eigenvector; a capped solve that returns its best iterate keeps the
// plan O(cheap) on badly conditioned clusters, and a split that suffers
// from it merely costs a few more cut edges at stitch time.
const fiedlerPCGMaxIter = 40

// ResolveShards returns the cluster count K the pipeline will target for
// a graph with n vertices under o (before component splitting and
// fragment repair adjust it). The serving engine uses it so that an
// auto-K request and an explicit request resolving to the same K share
// one artifact identity.
func ResolveShards(n, workers int, o Options) int { return o.resolveShards(n, workers) }

// resolveShards returns the cluster count K for a graph with n vertices.
func (o Options) resolveShards(n, workers int) int {
	k := o.Shards
	if k <= 0 {
		switch {
		case o.Threshold > 0:
			k = (n + o.Threshold - 1) / o.Threshold
		default:
			k = workers
		}
		if k < 2 {
			k = 2
		}
	}
	// Each cluster should be worth sparsifying on its own; below ~8
	// vertices per cluster the stitch dominates and the plan is noise.
	if max := n / 8; k > max {
		k = max
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Cluster is one planned partition cell: its global vertex set and the
// induced local subgraph (local vertex i is global Vertices[i]; local
// edge j is global edge GlobalEdge[j]). On a lazily materialized plan
// (PlanFromAssignReweight) clean clusters carry only the vertex list
// and the edge count — Local and GlobalEdge stay nil, since the
// index-adoption path never reads them.
type Cluster struct {
	Vertices   []int
	Local      *graph.Graph
	GlobalEdge []int
	// EdgeCount mirrors Local.M() for clusters whose local subgraph was
	// not materialized; read it through LocalEdges.
	EdgeCount int
}

// LocalEdges returns the cluster's intra-cluster edge count whether or
// not the local subgraph was materialized.
func (c *Cluster) LocalEdges() int {
	if c.Local != nil {
		return c.Local.M()
	}
	return c.EdgeCount
}

// Plan is a K-way partition of a graph: per-vertex cluster assignment,
// the induced cluster subgraphs (each connected by construction), and
// the cut-edge set.
type Plan struct {
	K        int // len(Clusters), after component splitting
	Planned  int // the K the bisection targeted
	Assign   []int
	Clusters []Cluster
	// CutEdges lists indices into the input graph's edge list whose
	// endpoints lie in different clusters.
	CutEdges []int
	// FallbackSplits counts bisections that used the BFS ordering
	// instead of the Fiedler split.
	FallbackSplits int
	PlanTime       time.Duration

	// adopt, set by retainedPlan for a reweight-only delta, lists per
	// clean cluster the base sparsifier edge indices Run adopts verbatim
	// (nil entries for dirty clusters); baseKeys are the base cluster
	// fingerprints the adopted clusters keep. Nil on every other plan.
	adopt    [][]int
	baseKeys []string
}

// NewPlan partitions g into (about) k balanced, connected clusters by
// recursive spectral bisection. k ≤ 0 resolves per Options.resolveShards.
// Planned clusters that come out disconnected (a median split of a
// Fiedler ordering does not preserve connectivity) are split into their
// components, so K can exceed the planned k slightly; every returned
// cluster is connected, which the per-cluster sparsifier requires.
//
// Sibling bisections of the recursion are independent and run
// concurrently on the same bounded worker pool Run uses
// (Options.Sparsify.Workers); the resulting plan is identical to a
// sequential one — cluster numbering is canonicalized by vertex order
// after the recursion, so scheduling cannot leak into the partition.
func NewPlan(ctx context.Context, g *graph.Graph, opts Options) (*Plan, error) {
	if g == nil || g.N < 1 {
		return nil, fmt.Errorf("shard: nil or empty graph")
	}
	workers := opts.Sparsify.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	k := opts.resolveShards(g.N, workers)
	start := time.Now()

	p := &Plan{Planned: k, Assign: make([]int, g.N)}
	pl := newPlanner(g, opts, p, workers)
	all := make([]int, g.N)
	for i := range all {
		all[i] = i
	}
	if err := pl.split(ctx, all, k); err != nil {
		return nil, err
	}
	p.FallbackSplits = int(pl.fallbacks.Load())
	if err := p.componentize(g, true); err != nil {
		return nil, err
	}
	p.PlanTime = time.Since(start)
	return p, nil
}

// planner carries the recursion state of NewPlan. Sibling subtrees may run
// on different goroutines (bounded by sem), so the global→local scratch
// arrays are pooled, cluster ids come from an atomic counter, and the
// fallback count is atomic; Assign writes are per-vertex disjoint across
// subtrees by construction.
type planner struct {
	g         *graph.Graph
	opts      Options
	plan      *Plan
	sem       chan struct{} // spare worker slots (capacity workers-1)
	nextID    atomic.Int64
	fallbacks atomic.Int64
	scratch   sync.Pool // *[]int, len g.N, all -1 between uses
}

func newPlanner(g *graph.Graph, opts Options, p *Plan, workers int) *planner {
	if workers < 1 {
		workers = 1
	}
	pl := &planner{g: g, opts: opts, plan: p, sem: make(chan struct{}, workers-1)}
	pl.scratch.New = func() any {
		s := make([]int, g.N)
		for i := range s {
			s[i] = -1
		}
		return &s
	}
	return pl
}

// split assigns the vertices in verts to `parts` cluster ids by recursive
// bisection, offloading the left subtree to a pooled goroutine when a
// worker slot is free and recursing inline otherwise.
func (pl *planner) split(ctx context.Context, verts []int, parts int) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("shard: planning: %w", err)
	}
	if parts <= 1 || len(verts) <= 1 {
		id := int(pl.nextID.Add(1)) - 1
		for _, v := range verts {
			pl.plan.Assign[v] = id
		}
		return nil
	}
	order := pl.splitOrder(ctx, verts)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("shard: planning: %w", err)
	}
	p1 := parts / 2
	// Proportional cut point keeps cluster sizes balanced when parts is
	// odd (e.g. 3 parts → 1/3 : 2/3 at this level).
	cut := len(order) * p1 / parts
	if cut < 1 {
		cut = 1
	}
	if cut >= len(order) {
		cut = len(order) - 1
	}
	left, right := order[:cut], order[cut:]
	select {
	case pl.sem <- struct{}{}:
		var wg sync.WaitGroup
		var lerr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-pl.sem }()
			lerr = pl.split(ctx, left, p1)
		}()
		rerr := pl.split(ctx, right, parts-p1)
		wg.Wait()
		if lerr != nil {
			return lerr
		}
		return rerr
	default:
		if err := pl.split(ctx, left, p1); err != nil {
			return err
		}
		return pl.split(ctx, right, parts-p1)
	}
}

// splitOrder returns verts reordered so that a prefix/suffix cut yields a
// good bisection: by Fiedler value of the induced subgraph when the
// spectral solve succeeds, by layered BFS from an extremal vertex
// otherwise (which also groups disconnected components contiguously).
func (pl *planner) splitOrder(ctx context.Context, verts []int) []int {
	local, _ := pl.induced(verts)
	if local.N >= fiedlerMinVertices && local.Connected() {
		if local.N > fiedlerMaxVertices {
			// Deliberate geometric split: counted with the fallbacks so
			// telemetry shows how much of the plan was non-spectral.
			pl.fallbacks.Add(1)
			return bfsOrder(local, verts)
		}
		if order, ok := fiedlerOrder(ctx, local, verts, pl.opts); ok {
			return order
		}
		pl.fallbacks.Add(1)
	}
	return bfsOrder(local, verts)
}

// induced builds the subgraph of pl.g induced by verts, with local vertex
// ids following the order of verts. The second return maps local edge
// index → global edge index.
func (pl *planner) induced(verts []int) (*graph.Graph, []int) {
	g := pl.g
	sp := pl.scratch.Get().(*[]int)
	localID := *sp
	for i, v := range verts {
		localID[v] = i
	}
	var edges []graph.Edge
	var globalEdge []int
	for i, v := range verts {
		for p := g.AdjStart[v]; p < g.AdjStart[v+1]; p++ {
			u := g.AdjTarget[p]
			lu := localID[u]
			if lu < 0 || lu <= i {
				continue // outside the set, or counted from the other side
			}
			e := g.AdjEdge[p]
			edges = append(edges, graph.Edge{U: i, V: lu, W: g.Edges[e].W})
			globalEdge = append(globalEdge, e)
		}
	}
	for _, v := range verts {
		localID[v] = -1
	}
	pl.scratch.Put(sp)
	// The emitted edges are valid, normalized (i < lu), and deduplicated
	// by construction; FromNormalized also preserves their order exactly,
	// which keeps globalEdge[j] aligned with Local.Edges[j] — callers map
	// local sparsifier edge indices back through it.
	lg := graph.FromNormalized(len(verts), edges)
	return lg, globalEdge
}

// fiedlerOrder computes the Fiedler vector of the connected local graph
// with a spanning-tree-preconditioned inverse power iteration and returns
// the global vertex ids sorted by Fiedler value. ok is false when the
// solve fails or the vector degenerates (no usable spread), in which case
// the caller falls back to the BFS ordering.
func fiedlerOrder(ctx context.Context, local *graph.Graph, verts []int, opts Options) ([]int, bool) {
	steps := opts.FiedlerSteps
	if steps <= 0 {
		steps = 4
	}
	st, err := tree.MEWST(local)
	if err != nil {
		return nil, false
	}
	shift := lap.Shift(local, opts.Sparsify.ShiftRel)
	lt := lap.Laplacian(local.Subgraph(st.EdgeIdx), shift)
	f, err := chol.New(lt, chol.Options{})
	if err != nil {
		return nil, false
	}
	lg := lap.Laplacian(local, shift)
	pre := solver.NewCholPrecond(f)
	fv, err := eig.FiedlerCtx(ctx, local.N, steps, opts.Sparsify.Seed+int64(local.N), func(dst, b []float64) {
		for i := range dst {
			dst[i] = 0
		}
		solver.PCG(lg, b, dst, pre, solver.Options{Tol: 1e-3, MaxIter: fiedlerPCGMaxIter, Ctx: ctx})
	})
	if err != nil || len(fv) != local.N {
		return nil, false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range fv {
		if math.IsNaN(v) {
			return nil, false
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if !(hi > lo) {
		return nil, false // degenerate: every component equal, no ordering
	}
	order := make([]int, len(verts))
	idx := argsort(fv)
	for i, li := range idx {
		order[i] = verts[li]
	}
	return order, true
}

// bfsOrder returns the global vertex ids of the local graph in layered
// BFS discovery order from an extremal vertex (the far end of a BFS
// double sweep), restarted per component so components stay contiguous.
func bfsOrder(local *graph.Graph, verts []int) []int {
	// First sweep from local vertex 0 finds a far vertex; second sweep
	// from there yields the bisection ordering (a classic diameter
	// heuristic: cutting at the median of that ordering separates the
	// graph roughly across its long axis).
	far := 0
	seen := make([]int, local.N)
	for i := range seen {
		seen[i] = -1
	}
	local.BFSLayers(0, -1, seen, func(v, _, _ int) { far = v })

	order := make([]int, 0, len(verts))
	seen2 := make([]int, local.N)
	for i := range seen2 {
		seen2[i] = -1
	}
	visit := func(v, _, _ int) { order = append(order, verts[v]) }
	local.BFSLayers(far, -1, seen2, visit)
	for s := 0; s < local.N; s++ { // remaining components, if any
		if seen2[s] == -1 {
			local.BFSLayers(s, -1, seen2, visit)
		}
	}
	return order
}

// argsort returns indices that sort vals ascending (stable on ties).
func argsort(vals []float64) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		// Negative exactly when vals[a] < vals[b], or the values are
		// equal and a < b; cmp.Compare would order NaN differently.
		if va, vb := vals[a], vals[b]; va != vb {
			if va < vb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b) // deterministic tie-break
	})
	return idx
}

// componentize replaces every planned cluster by its connected
// components, optionally merges small fragments back into their
// strongest neighboring cluster, and rebuilds Assign, Clusters, and
// CutEdges. Per-cluster sparsification requires connected inputs; a
// spectral (or BFS) median cut does not guarantee that, and without the
// repair pass a noisy ordering splinters the plan into far more clusters
// than planned (tiny fragments inflate the cut and starve the
// per-cluster economics). PlanFromAssign passes repair=false: its input
// was already repaired once, and re-running the merge under a different
// Planned-derived threshold would reshuffle cluster ids — and with them
// every per-cluster seed and fingerprint — on an unchanged assignment.
func (p *Plan) componentize(g *graph.Graph, repair bool) error {
	if p.Planned < 1 {
		return fmt.Errorf("shard: empty plan")
	}
	// Gather planned clusters' vertex lists.
	byID := make([][]int, 0, p.Planned)
	idOf := make(map[int]int, p.Planned)
	for v, id := range p.Assign {
		j, ok := idOf[id]
		if !ok {
			j = len(byID)
			idOf[id] = j
			byID = append(byID, nil)
		}
		byID[j] = append(byID[j], v)
	}

	pl := newPlanner(g, Options{}, p, 1)
	final := 0
	for _, verts := range byID {
		local, _ := pl.induced(verts)
		comp := local.Components()
		base := final
		maxC := 0
		for li, c := range comp {
			if c > maxC {
				maxC = c
			}
			p.Assign[verts[li]] = base + c
		}
		final = base + maxC + 1
	}

	if repair {
		final = p.repairFragments(g, final)
	}
	p.K = final

	// Rebuild cluster vertex lists under the final assignment, then the
	// induced local graphs and the cut-edge set.
	vertsOf := make([][]int, p.K)
	for v, id := range p.Assign {
		vertsOf[id] = append(vertsOf[id], v)
	}
	p.Clusters = make([]Cluster, p.K)
	for i, verts := range vertsOf {
		local, globalEdge := pl.induced(verts)
		p.Clusters[i] = Cluster{Vertices: verts, Local: local, GlobalEdge: globalEdge}
	}
	p.CutEdges = p.CutEdges[:0]
	for e, ed := range g.Edges {
		if p.Assign[ed.U] != p.Assign[ed.V] {
			p.CutEdges = append(p.CutEdges, e)
		}
	}
	return nil
}

// repairFragments merges clusters far below their fair share (< 1/4 of
// N/planned) into the neighboring cluster they share the most edge weight
// with, repeating until no fragment has a neighbor (a merged cluster
// stays connected: the fragment attaches through the very edges that made
// that neighbor the strongest). It rewrites Assign to compact ids and
// returns the new cluster count.
func (p *Plan) repairFragments(g *graph.Graph, k int) int {
	d := dsu.New(k)
	fair := len(p.Assign) / p.Planned
	small := fair / 4
	if small < 1 {
		small = 1
	}
	for pass := 0; pass < 16; pass++ {
		sizes := make([]int, k)
		for _, id := range p.Assign {
			sizes[d.Find(id)]++
		}
		// Per-fragment boundary weight toward each neighboring cluster;
		// the heaviest shared boundary wins the merge.
		wTo := make(map[int]map[int]float64)
		for _, ed := range g.Edges {
			a, b := d.Find(p.Assign[ed.U]), d.Find(p.Assign[ed.V])
			if a == b {
				continue
			}
			for _, pair := range [2][2]int{{a, b}, {b, a}} {
				from, to := pair[0], pair[1]
				if sizes[from] > small {
					continue
				}
				m := wTo[from]
				if m == nil {
					m = make(map[int]float64)
					wTo[from] = m
				}
				m[to] += ed.W
			}
		}
		if len(wTo) == 0 {
			break
		}
		// Deterministic merge order: ascending fragment id, best neighbor
		// by weight with id tie-break (map iteration order must not leak
		// into the plan).
		merged := false
		for from := 0; from < k; from++ {
			m := wTo[from]
			if m == nil || d.Find(from) != from {
				continue // not a fragment, or already absorbed this pass
			}
			bestTo, bestW := -1, 0.0
			for to, w := range m {
				if bestTo == -1 || w > bestW || (w == bestW && to < bestTo) {
					bestTo, bestW = to, w
				}
			}
			if bestTo >= 0 && d.Union(from, bestTo) {
				merged = true
			}
		}
		if !merged {
			break
		}
	}
	// Compact ids.
	remap := make([]int, k)
	for i := range remap {
		remap[i] = -1
	}
	next := 0
	for v, id := range p.Assign {
		r := d.Find(id)
		if remap[r] == -1 {
			remap[r] = next
			next++
		}
		p.Assign[v] = remap[r]
	}
	return next
}

package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/shard"
	"repro/internal/solver"
	"repro/internal/sparsify"
)

// Config is the resolved configuration of a Sparsifier handle. The public
// package builds one from functional options; the serving engine builds
// one from its own flags. The zero value selects the paper's construction
// parameters and library defaults for every measurement.
type Config struct {
	// Sparsify configures how the sparsifier subgraph is constructed
	// (method, α, rounds, β, δ, similarity hops, workers, seed).
	Sparsify sparsify.Options

	// Prebuilt, when non-nil, skips construction entirely and uses this
	// subgraph as the sparsifier. It must span the same vertex set as the
	// input graph and be connected. The handle computes the shared
	// regularization shift itself, so pencil and sparsifier stay
	// consistent.
	Prebuilt *graph.Graph

	// Tol is the PCG relative residual tolerance for Solve (default 1e-6).
	Tol float64
	// MaxIter caps PCG iterations per solve (default 10·n).
	MaxIter int
	// LanczosSteps controls the CondNumber estimate (default 80).
	LanczosSteps int
	// TraceProbes is the Hutchinson sample count for TraceProxy
	// (default 30).
	TraceProbes int
	// FiedlerSteps is the number of inverse-power rounds for Fiedler
	// (default 10); FiedlerTol the inner PCG tolerance (default Tol).
	FiedlerSteps int
	FiedlerTol   float64

	// MaxVertices rejects graphs with more vertices at admission
	// (ErrTooLarge); 0 disables the limit. Serving deployments use it to
	// bound per-request memory.
	MaxVertices int
	// ShardThreshold routes graphs with more vertices through the
	// partition-parallel sharded pipeline (internal/shard): the graph is
	// recursively bipartitioned into balanced clusters, each cluster is
	// sparsified concurrently, and the pieces are stitched with a cut-edge
	// spanning forest plus one global trace-reduction recovery round.
	// 0 disables sharding (every graph builds monolithically). Ignored
	// when Prebuilt is set.
	ShardThreshold int
	// Shards is the cluster count K for the sharded pipeline (0 derives
	// K from ShardThreshold: ceil(N/ShardThreshold)).
	Shards int
	// CheckEvery is the cancellation poll cadence in PCG iterations
	// (default solver.DefaultCheckEvery).
	CheckEvery int

	// Clusters is an optional shared cache of per-cluster sparsifier
	// edge sets for the sharded pipeline, keyed by cluster fingerprint.
	// The serving engine wires it to its cluster store so cold builds
	// populate it and Updates look up their dirty clusters in it;
	// handle-level Updates work without it (clean clusters adopt the
	// base handle's edges) but populate it when present.
	Clusters shard.ClusterCache
	// Factors is read by nothing in this package: every handle carries
	// the monolithic factor. Kept for perfbench/replay.go until ROADMAP
	// item 11.
	Factors precond.FactorCache
}

// erPlanVertices is the graph size above which the ER method routes
// through the sharded pipeline even without a configured
// ShardThreshold: effective-resistance estimation is the one
// construction path that solves systems in L_G itself, and a monolithic
// factorization of L_G stops being cheap well before the rest of the
// stack notices graph size. The value doubles as the cluster-size
// target for those ER builds, which carry the monolithic factor of the
// stitched sparsifier like every other handle. 4096 is measured, not
// asymptotic — on the 600×600 grid it builds ~4.7× faster than
// 16384-vertex clusters (3.2s vs 15.5s: Cholesky fill on a cluster's
// full local Laplacian grows superlinearly) while halving it again buys
// nothing (per-cluster orchestration overhead dominates below this
// size).
const erPlanVertices = 4096

// withDefaults fills measurement defaults (construction defaults are
// resolved inside sparsify).
func (c Config) withDefaults() Config {
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	if c.LanczosSteps <= 0 {
		c.LanczosSteps = 80
	}
	if c.TraceProbes <= 0 {
		c.TraceProbes = 30
	}
	if c.FiedlerSteps <= 0 {
		c.FiedlerSteps = 10
	}
	if c.FiedlerTol <= 0 {
		c.FiedlerTol = c.Tol
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = solver.DefaultCheckEvery
	}
	return c
}

// Sparsifier is a long-lived handle over one (graph, sparsifier) pair: the
// sparsifier subgraph plus the prepared pencil (shared shift, assembled
// Laplacians, Cholesky factorization), built once by NewSparsifier and
// reused across every subsequent measurement. This is the unit the paper's
// economics call for — construction is expensive, application is cheap —
// and the unit the serving engine caches.
//
// A Sparsifier is immutable after construction (Compact, for the owner
// only, is the one exception — see its doc) and safe for concurrent use;
// every method takes a context.Context that is threaded down into the
// PCG iterations and Lanczos sweeps, so slow measurements are cancellable
// end to end.
type Sparsifier struct {
	cfg Config
	n   int

	res *sparsify.Result // nil when built from Config.Prebuilt
	sub *graph.Graph     // the sparsifier subgraph
	pen *Pencil

	// Streaming-delta fast-path state: how the handle's pencil was
	// derived (nil on cold builds) and the stored-zero debt its patched
	// matrices carry into the next Update (removals leave dead CSC slots
	// behind until compaction).
	upd              *UpdateStats
	lgZeros, lpZeros int

	buildTime time.Duration
}

// NewSparsifier validates g, constructs (or adopts) the sparsifier, and
// prepares the pencil. Construction honors ctx: cancellation mid-build
// abandons the remaining recovery rounds and returns ErrCanceled.
func NewSparsifier(ctx context.Context, g *graph.Graph, cfg Config) (*Sparsifier, error) {
	cfg = cfg.withDefaults()
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if g.N < 1 {
		return nil, fmt.Errorf("core: graph has no vertices")
	}
	if cfg.MaxVertices > 0 && g.N > cfg.MaxVertices {
		return nil, fmt.Errorf("%w: graph has %d vertices, limit is %d", ErrTooLarge, g.N, cfg.MaxVertices)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("%w: graph with %d vertices and %d edges has %d components",
			ErrDisconnected, g.N, g.M(), componentCount(g))
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapCanceled(fmt.Errorf("core: building sparsifier: %w", err))
	}

	start := time.Now()
	s := &Sparsifier{cfg: cfg, n: g.N}
	var shift []float64
	if p := cfg.Prebuilt; p != nil {
		if p.N != g.N {
			return nil, fmt.Errorf("%w: sparsifier has %d vertices, graph has %d", ErrDimension, p.N, g.N)
		}
		if !p.Connected() {
			return nil, fmt.Errorf("%w: prebuilt sparsifier with %d edges has %d components over %d vertices",
				ErrDisconnected, p.M(), componentCount(p), p.N)
		}
		s.sub = p
		// No Result to carry a shift from; NewPencil computes the same
		// default the construction path would have used.
	} else {
		var res *sparsify.Result
		var err error
		switch {
		case cfg.ShardThreshold > 0 && g.N > cfg.ShardThreshold:
			res, err = shard.Sparsify(ctx, g, shard.Options{
				Shards:    cfg.Shards,
				Threshold: cfg.ShardThreshold,
				Sparsify:  cfg.Sparsify,
				Cache:     cfg.Clusters,
			})
		case cfg.Sparsify.Method == sparsify.ER && g.N > erPlanVertices:
			// ER needs linear solves in L_G — the one method whose
			// construction cost has a superlinear monolithic term — so
			// above this size it always goes through the sharded
			// pipeline: per-cluster estimates solve against small local
			// factors. Sharding here is the method's own scaling
			// decision, not the operator's (who may have left
			// ShardThreshold unset for trace-reduction workloads).
			res, err = shard.Sparsify(ctx, g, shard.Options{
				Shards:    cfg.Shards,
				Threshold: erPlanVertices,
				Sparsify:  cfg.Sparsify,
			})
		default:
			res, err = sparsify.SparsifyContext(ctx, g, cfg.Sparsify)
		}
		if err != nil {
			return nil, wrapCanceled(err)
		}
		s.res = res
		s.sub = res.Sparsifier
		// Carry the construction shift into the pencil so λmin of the
		// pencil is exactly 1 under the same regularization the
		// sparsifier was scored with.
		shift = res.Shift
	}

	pen, err := NewPencil(g, s.sub, shift)
	if err != nil {
		return nil, err
	}
	s.pen = pen
	s.buildTime = time.Since(start)
	return s, nil
}

// componentCount returns the number of connected components.
func componentCount(g *graph.Graph) int {
	max := -1
	for _, c := range g.Components() {
		if c > max {
			max = c
		}
	}
	return max + 1
}

// Solution is the outcome of one preconditioned solve.
type Solution struct {
	X          []float64
	Iterations int
	RelRes     float64
	Converged  bool
}

// Solve solves L_G x = b with PCG preconditioned by the sparsifier's
// Cholesky factorization, to the configured tolerance. The context is
// polled every CheckEvery iterations; cancellation returns ErrCanceled.
func (s *Sparsifier) Solve(ctx context.Context, b []float64) (*Solution, error) {
	return s.SolveTol(ctx, b, s.cfg.Tol)
}

// SolveTol is Solve with a per-call tolerance override (tol ≤ 0 selects
// the configured default).
func (s *Sparsifier) SolveTol(ctx context.Context, b []float64, tol float64) (*Solution, error) {
	if len(b) != s.n {
		return nil, fmt.Errorf("%w: rhs has length %d, graph has %d vertices", ErrDimension, len(b), s.n)
	}
	if tol <= 0 {
		tol = s.cfg.Tol
	}
	x := make([]float64, s.n)
	r, err := s.pen.SolveCtx(ctx, b, x, solver.Options{
		Tol: tol, MaxIter: s.cfg.MaxIter, CheckEvery: s.cfg.CheckEvery,
	})
	if err != nil {
		return nil, err
	}
	return &Solution{X: x, Iterations: r.Iterations, RelRes: r.RelRes, Converged: r.Converged}, nil
}

// maxPanelCols caps how many right-hand sides one block-PCG panel
// carries. Wider panels amortize the per-iteration matrix and factor
// traversals over more columns, but cost five panels of working memory
// and couple the iteration count of every column in the chunk to its
// slowest member (deflation recovers most, not all, of that); past ~16
// columns the traversals are already a small fraction of each iteration
// and the extra width buys nothing.
const maxPanelCols = 16

// SolveBatch solves one system per right-hand side against the same
// factorization with block PCG: every column in a chunk of up to
// maxPanelCols shares each iteration's matrix–panel product and
// preconditioner panel apply — the memory-bound traversals that dominate
// a scalar solve — while keeping its own scalar recurrences, converging
// and deflating independently. Chunks fan out across the configured
// construction workers. Results are in input order; the first error
// (dimension mismatch or cancellation) aborts the batch.
func (s *Sparsifier) SolveBatch(ctx context.Context, bs [][]float64) ([]*Solution, error) {
	return s.SolveBatchTol(ctx, bs, 0)
}

// SolveBatchTol is SolveBatch with a per-call tolerance override (tol ≤ 0
// selects the configured default). Every column in the batch solves to
// the same tolerance; callers mixing tolerances (the engine's request
// coalescer) group by tolerance first.
func (s *Sparsifier) SolveBatchTol(ctx context.Context, bs [][]float64, tol float64) ([]*Solution, error) {
	for i, b := range bs {
		if len(b) != s.n {
			return nil, fmt.Errorf("%w: rhs %d has length %d, graph has %d vertices", ErrDimension, i, len(b), s.n)
		}
	}
	if tol <= 0 {
		tol = s.cfg.Tol
	}
	out := make([]*Solution, len(bs))
	switch len(bs) {
	case 0:
		return out, nil
	case 1:
		// A single right-hand side gains nothing from panels: the scalar
		// loop avoids the interleaving copies entirely.
		sol, err := s.SolveTol(ctx, bs[0], tol)
		if err != nil {
			return nil, err
		}
		out[0] = sol
		return out, nil
	}
	nchunks := (len(bs) + maxPanelCols - 1) / maxPanelCols
	errs := make([]error, nchunks)
	workers := s.cfg.Sparsify.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nchunks {
		workers = nchunks
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range next {
				lo := ci * maxPanelCols
				hi := lo + maxPanelCols
				if hi > len(bs) {
					hi = len(bs)
				}
				xs := make([][]float64, hi-lo)
				for k := range xs {
					xs[k] = make([]float64, s.n)
				}
				rs, err := s.pen.SolveBlockCtx(ctx, bs[lo:hi], xs, solver.Options{
					Tol: tol, MaxIter: s.cfg.MaxIter, CheckEvery: s.cfg.CheckEvery,
				})
				if err != nil {
					errs[ci] = err
					continue
				}
				for k, r := range rs {
					out[lo+k] = &Solution{X: xs[k], Iterations: r.Iterations, RelRes: r.RelRes, Converged: r.Converged}
				}
			}
		}()
	}
	for ci := 0; ci < nchunks; ci++ {
		next <- ci
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CondNumber estimates the largest generalized eigenvalue of the
// preconditioned pencil by Lanczos with the configured step count and
// seed: κ(L_G, L_P), the paper's quality metric.
func (s *Sparsifier) CondNumber(ctx context.Context) (float64, error) {
	return s.CondNumberWith(ctx, s.cfg.LanczosSteps, s.cfg.Sparsify.Seed)
}

// CondNumberWith is CondNumber with explicit Lanczos steps (≤ 0 for the
// default) and seed, for callers issuing repeated estimates with varied
// randomness against one handle.
func (s *Sparsifier) CondNumberWith(ctx context.Context, steps int, seed int64) (float64, error) {
	return s.pen.CondNumberCtx(ctx, steps, seed)
}

// TraceProxy estimates the trace of the preconditioned operator with a
// Hutchinson estimator using the configured probe count and seed:
// Tr(L_P⁻¹ L_G), the paper's condition-number proxy (eq. 5).
func (s *Sparsifier) TraceProxy(ctx context.Context) (float64, error) {
	return s.TraceProxyWith(ctx, s.cfg.TraceProbes, s.cfg.Sparsify.Seed)
}

// TraceProxyWith is TraceProxy with explicit probe count (≤ 0 for the
// default) and seed.
func (s *Sparsifier) TraceProxyWith(ctx context.Context, probes int, seed int64) (float64, error) {
	return s.pen.TraceEstCtx(ctx, probes, seed)
}

// Fiedler approximates the Fiedler vector of the graph by inverse power
// iteration with the configured steps, inner tolerance, and seed.
func (s *Sparsifier) Fiedler(ctx context.Context) ([]float64, error) {
	return s.FiedlerWith(ctx, s.cfg.FiedlerSteps, s.cfg.FiedlerTol, s.cfg.Sparsify.Seed)
}

// FiedlerWith is Fiedler with explicit step count, inner PCG tolerance,
// and seed.
func (s *Sparsifier) FiedlerWith(ctx context.Context, steps int, tol float64, seed int64) ([]float64, error) {
	return s.pen.FiedlerCtx(ctx, steps, tol, seed)
}

// Partition computes a balanced spectral bipartition: the Fiedler vector
// split at its median (the paper's §4.3 application). part[v] is 0 or 1.
func (s *Sparsifier) Partition(ctx context.Context) ([]int, error) {
	fv, err := s.Fiedler(ctx)
	if err != nil {
		return nil, err
	}
	return partition.Bipartition(fv), nil
}

// Compact releases construction scaffolding the serving path never reads —
// the spanning tree (whose rooted representation retains the full input
// graph) and the per-edge membership flags — keeping the sparsifier
// subgraph, shift, edge list, and timing stats. A long-lived cache of
// handles should bound factorizations, not dead scaffolding; the engine
// calls this before publishing an artifact. After Compact, Result().Tree
// and Result().InSub are nil.
//
// Compact is the one exception to the handle's immutability: it must be
// called by the handle's single owner BEFORE the handle is shared with
// other goroutines (as the engine does, pre-publication). Calling it on a
// handle already visible elsewhere races with concurrent Result() readers.
func (s *Sparsifier) Compact() {
	if s.res != nil {
		s.res.Tree = nil
		s.res.InSub = nil
		// The per-vertex cluster assignment and the cluster fingerprint
		// keys deliberately survive Compact: they are what lets Update map
		// a later edge delta onto dirty clusters and reuse the rest — N
		// ints plus K short strings buys skipping most of a rebuild.
	}
}

// N returns the vertex count of the underlying graphs.
func (s *Sparsifier) N() int { return s.n }

// SparsifierGraph returns the sparsifier subgraph P.
func (s *Sparsifier) SparsifierGraph() *graph.Graph { return s.sub }

// Result returns the construction result (spanning tree, per-edge
// membership, timing stats); nil when the handle was built from a prebuilt
// subgraph.
func (s *Sparsifier) Result() *sparsify.Result { return s.res }

// ShardStats returns the per-shard build telemetry when the handle was
// constructed through the sharded pipeline (Config.ShardThreshold
// exceeded); nil for monolithic or prebuilt handles. The stats survive
// Compact.
func (s *Sparsifier) ShardStats() *sparsify.ShardStats {
	if s.res == nil {
		return nil
	}
	return s.res.Shards
}

// Sharded reports whether the handle was actually built through the
// sharded pipeline. It is false when the expander guard abandoned the
// plan and built monolithically — ShardStats still records that decision.
func (s *Sparsifier) Sharded() bool {
	st := s.ShardStats()
	return st != nil && !st.Abandoned
}

// Pencil returns the prepared pencil for callers needing the raw
// factorization (e.g. custom measurement loops).
func (s *Sparsifier) Pencil() *Pencil { return s.pen }

// Shift returns the shared diagonal regularization both Laplacians carry.
func (s *Sparsifier) Shift() []float64 { return s.pen.Shift }

// Config returns the handle's resolved configuration.
func (s *Sparsifier) Config() Config { return s.cfg }

// BuildTime reports how long construction (sparsification + factorization)
// took.
func (s *Sparsifier) BuildTime() time.Duration { return s.buildTime }

// UpdateStats reports how the streaming-delta fast path served the Update
// that produced this handle: whether the stitch ran localized and whether
// the pencil was patched in place instead of reassembled. Nil for handles
// built cold (New / NewSparsifier).
func (s *Sparsifier) UpdateStats() *UpdateStats { return s.upd }

// PrecondStats reports how the pencil's preconditioner was built: the
// strategy, factor nonzeros, memory, build time and refactor rows.
// Never nil.
func (s *Sparsifier) PrecondStats() *precond.Stats { return s.pen.PreStats }

// FactorNNZ reports the nonzeros of the preconditioner's Cholesky
// factor.
func (s *Sparsifier) FactorNNZ() int { return int(s.pen.PreStats.FactorNNZ) }

// MemBytes reports the preconditioner's storage footprint.
func (s *Sparsifier) MemBytes() int64 { return s.pen.PreStats.MemBytes }

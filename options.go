package trsparse

import "repro/internal/core"

// Config is the resolved configuration of a Sparsifier handle. Build one
// implicitly by passing Options to New; zero values select the paper's
// parameters (α = 10%·|V| recovered edges, N_r = 5 rounds, β = 5, δ = 0.1)
// and library defaults for every measurement.
type Config = core.Config

// Option configures New. Options compose left to right; later options win.
type Option func(*Config)

// WithMethod selects the sparsification algorithm (TraceReduction, GRASS,
// FeGRASS, or MethodER; default TraceReduction).
func WithMethod(m Method) Option {
	return func(c *Config) { c.Sparsify.Method = m }
}

// WithERSketches fixes the number of Johnson–Lindenstrauss sketch columns
// the effective-resistance estimator solves (0, the default, derives the
// count from |V| and the epsilon of WithEREpsilon). More sketches buy
// resistance accuracy — and with it sparsifier quality — linearly in
// estimation time. It affects MethodER builds only.
func WithERSketches(k int) Option {
	return func(c *Config) { c.Sparsify.ERSketches = k }
}

// WithEREpsilon sets the target relative accuracy ε of the sketched
// effective resistances (default 0.5); the auto-derived sketch count
// grows as 1/ε². It affects MethodER builds only, and is ignored when
// WithERSketches pins the count explicitly.
func WithEREpsilon(eps float64) Option {
	return func(c *Config) { c.Sparsify.EREpsilon = eps }
}

// WithAlpha sets the fraction of |V| off-tree edges to recover
// (paper: 0.10).
func WithAlpha(alpha float64) Option {
	return func(c *Config) { c.Sparsify.Alpha = alpha }
}

// WithRecoveryRounds sets the number of densification iterations N_r
// (paper: 5).
func WithRecoveryRounds(rounds int) Option {
	return func(c *Config) { c.Sparsify.Rounds = rounds }
}

// WithBeta sets the BFS truncation depth β of eq. (12) (paper: 5).
func WithBeta(beta int) Option {
	return func(c *Config) { c.Sparsify.Beta = beta }
}

// WithDelta sets the SPAI pruning threshold δ of Algorithm 1 (paper: 0.1).
func WithDelta(delta float64) Option {
	return func(c *Config) { c.Sparsify.Delta = delta }
}

// WithSimilarityHops sets the BFS radius γ used to exclude edges
// spectrally similar to a recovered edge (default 2; negative disables
// exclusion).
func WithSimilarityHops(hops int) Option {
	return func(c *Config) { c.Sparsify.SimilarityHops = hops }
}

// WithShiftRel scales the shared diagonal regularization relative to the
// mean weighted degree (default 1e-6). The handle applies the same shift
// to both Laplacians of the pencil.
func WithShiftRel(rel float64) Option {
	return func(c *Config) { c.Sparsify.ShiftRel = rel }
}

// WithWorkers bounds construction-scoring and SolveBatch parallelism
// (default GOMAXPROCS).
func WithWorkers(workers int) Option {
	return func(c *Config) { c.Sparsify.Workers = workers }
}

// WithSeed drives every random choice — construction, Lanczos start
// vectors, Hutchinson probes — making runs reproducible.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Sparsify.Seed = seed }
}

// WithTolerance sets the PCG relative residual tolerance for Solve
// (default 1e-6).
func WithTolerance(tol float64) Option {
	return func(c *Config) { c.Tol = tol }
}

// WithMaxIterations caps PCG iterations per solve (default 10·n).
func WithMaxIterations(n int) Option {
	return func(c *Config) { c.MaxIter = n }
}

// WithLanczosSteps controls the CondNumber estimate's Lanczos step count
// (default 80).
func WithLanczosSteps(steps int) Option {
	return func(c *Config) { c.LanczosSteps = steps }
}

// WithTraceProbes sets the Hutchinson sample count for TraceProxy
// (default 30; ≈30 gives a few percent accuracy).
func WithTraceProbes(probes int) Option {
	return func(c *Config) { c.TraceProbes = probes }
}

// WithFiedlerSteps sets the inverse-power iteration count for Fiedler and
// Partition (default 10).
func WithFiedlerSteps(steps int) Option {
	return func(c *Config) { c.FiedlerSteps = steps }
}

// WithFiedlerTolerance sets the inner PCG tolerance of each inverse-power
// step (default: the Solve tolerance).
func WithFiedlerTolerance(tol float64) Option {
	return func(c *Config) { c.FiedlerTol = tol }
}

// WithMaxVertices rejects graphs with more vertices at admission with
// ErrTooLarge (0 disables the limit). Serving deployments use it to bound
// per-request memory.
func WithMaxVertices(n int) Option {
	return func(c *Config) { c.MaxVertices = n }
}

// WithCancelCheckEvery sets how many PCG iterations run between context
// polls (default 32). Lower values tighten cancellation latency at a
// negligible per-iteration cost.
func WithCancelCheckEvery(k int) Option {
	return func(c *Config) { c.CheckEvery = k }
}

// WithShardThreshold routes graphs with more than n vertices through the
// partition-parallel sharded pipeline: the graph is recursively
// bipartitioned into balanced clusters (spectral split with a BFS
// fallback), each cluster is sparsified concurrently, and the pieces are
// stitched with a cut-edge spanning forest plus one global
// trace-reduction recovery round. 0 (the default) builds every graph
// monolithically. Sharded handles report telemetry via
// Sparsifier.ShardStats.
func WithShardThreshold(n int) Option {
	return func(c *Config) { c.ShardThreshold = n }
}

// WithShards sets the cluster count K for the sharded pipeline (0 derives
// K from the shard threshold: ceil(|V|/threshold)). It has no effect
// unless WithShardThreshold routes the graph into the sharded path.
func WithShards(k int) Option {
	return func(c *Config) { c.Shards = k }
}

// WithRebalanceFactor tunes the incremental rebuild's balance guard: an
// Update whose delta grew any retained cluster past factor × its fair
// edge share (M/K) — or past factor × its own base-build size — replans
// from scratch instead of reusing the stale plan (0 keeps the default of
// 4; negative disables the guard). See Sparsifier.Update.
func WithRebalanceFactor(factor float64) Option {
	return func(c *Config) { c.Rebalance = factor }
}

// WithSparsifierGraph skips construction and adopts p as the sparsifier.
// p must span the same vertex set as the input graph (ErrDimension
// otherwise) and be connected (ErrDisconnected otherwise). Use it to
// measure a subgraph you built yourself — a bare spanning tree, a
// sparsifier from another tool — through the same pencil machinery.
func WithSparsifierGraph(p *Graph) Option {
	return func(c *Config) { c.Prebuilt = p }
}

// WithSparsifyOptions replaces the whole construction parameter block at
// once — the bridge for callers holding an Options struct.
func WithSparsifyOptions(o Options) Option {
	return func(c *Config) { c.Sparsify = o }
}

// newConfig folds options into a Config (zero value = defaults).
func newConfig(opts []Option) Config {
	var c Config
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

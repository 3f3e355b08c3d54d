// Package engine is the serving layer on top of the sparsifier library: a
// bounded worker pool that runs sparsification jobs concurrently, an LRU
// store of built artifacts (sparsifier + prepared pencil, i.e. the
// sparsifier's Cholesky factorization), and batch fan-out helpers.
//
// The economics mirror effective-resistance sparsification serving: the
// sparsifier is expensive to build and cheap to apply, so the engine
// fingerprints each incoming graph, builds its artifact at most once
// (concurrent requests for the same graph coalesce onto one build), and
// answers subsequent Solve/Fiedler/CondNumber requests by pure
// factorization reuse. cmd/trsparsed exposes this over HTTP.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/precond"
	"repro/internal/shard"
	"repro/internal/sparsify"
)

// DefaultCacheSize is the artifact-store capacity when Options.CacheSize
// is unset.
const DefaultCacheSize = 64

// DefaultHardCapFactor scales Options.MaxVertices into the hard admission
// cap when Options.HardMaxVertices is unset: graphs between MaxVertices
// and HardCapFactor·MaxVertices are admitted through the sharded pipeline
// instead of being rejected.
const DefaultHardCapFactor = 8

// ErrInternal marks failures that are engine faults (recovered panics)
// rather than problems with the caller's input; servers should map it to
// a 5xx status instead of blaming the request.
var ErrInternal = errors.New("internal engine error")

// ErrUnknownKey is returned by Update when the base artifact key is not
// in the store (evicted or never built); servers map it to 404.
var ErrUnknownKey = errors.New("engine: unknown artifact key")

// Options configures an Engine. The zero value selects sensible defaults.
type Options struct {
	// Workers bounds the number of jobs (builds, solves, evaluations)
	// executing at once; default GOMAXPROCS.
	Workers int
	// CacheSize bounds resident artifacts (default DefaultCacheSize).
	CacheSize int
	// ClusterCacheSize bounds the per-cluster artifact store backing
	// incremental rebuilds (default DefaultClusterCacheSize). Cold
	// sharded builds populate it; Update calls reuse untouched clusters'
	// sparsifiers and Schwarz factors from it. Negative disables
	// cluster caching entirely.
	ClusterCacheSize int
	// ClusterCacheBytes bounds the cluster store's accounted artifact
	// footprint — edge lists plus Schwarz factors — in bytes (0 disables
	// the byte budget; entries then bound only by count). The byte budget
	// is the one that actually sizes memory: factors dominate, and their
	// size varies with cluster geometry, so a count bound alone can be
	// off by orders of magnitude.
	ClusterCacheBytes int64
	// JobTimeout bounds one request's total wait — queueing plus work —
	// per job (0 disables). A timed-out build keeps running in the
	// background and still fills the cache; only the waiting request
	// gives up.
	JobTimeout time.Duration
	// Sparsify configures how artifacts are built (zero value = the
	// paper's parameters).
	Sparsify sparsify.Options
	// MaxVertices bounds the monolithic build path: graphs above this
	// vertex count are admitted through the sharded pipeline instead of
	// being built in one piece (they were rejected outright before the
	// sharded path existed). 0 disables the limit. Note the bound covers
	// per-cluster construction only — a sharded build still assembles and
	// factorizes the full stitched sparsifier's pencil once for the
	// solve handle, so deployments sizing memory strictly by MaxVertices
	// should set HardMaxVertices to taste (it defaults to 8x).
	MaxVertices int
	// HardMaxVertices is the absolute admission cap: graphs above it are
	// rejected with core.ErrTooLarge even for the sharded path. 0 derives
	// DefaultHardCapFactor·MaxVertices (or no cap when MaxVertices is
	// also 0). It bounds the one whole-graph cost a sharded build keeps:
	// the stitched pencil factorization.
	HardMaxVertices int
	// ShardThreshold routes graphs with more vertices through the
	// partition-parallel sharded pipeline even below MaxVertices
	// (0 shards only when MaxVertices forces it). See core.Config.
	ShardThreshold int
	// Shards is the default cluster count K for sharded builds (0 = auto
	// from the effective threshold).
	Shards int
	// Precond is the default preconditioner construction strategy for
	// built artifacts (precond.Auto picks the monolithic factor for every
	// build; see core.Config.Precond).
	Precond precond.Kind
	// ApplyWorkers bounds the per-apply goroutine fan-out of Schwarz
	// preconditioners built by this engine: same-color block corrections
	// are support-disjoint and run concurrently, bit-identical to the
	// sequential sweep (0 = GOMAXPROCS, negative forces sequential). It
	// has no effect on monolithic preconditioners. See
	// core.Config.ApplyWorkers.
	ApplyWorkers int
	// CoalesceWindow holds each solve-by-artifact request open for this
	// long so concurrent requests against the same artifact and tolerance
	// collect into one block solve (a single matrix sweep and
	// preconditioner apply per iteration serves every collected rhs).
	// 0 (the default) disables coalescing: each request solves
	// immediately. The window is a deliberate latency-for-throughput
	// trade — an isolated request pays the full window before its solve
	// starts.
	CoalesceWindow time.Duration
	// CoalesceMaxBatch caps how many requests one coalesced batch
	// collects before it executes early (default
	// DefaultCoalesceMaxBatch). Ignored when CoalesceWindow is 0.
	CoalesceMaxBatch int
	// StreamMaxSessions bounds concurrently open /v2/stream sessions
	// (default DefaultStreamMaxSessions; negative disables streaming).
	StreamMaxSessions int
	// StreamStaleness bounds how many pushed-but-unapplied updates a
	// stream session may hold before pushes are refused with
	// ErrStreamBackpressure — the staleness bound: the served artifact is
	// never more than this many accepted pushes behind the stream head
	// (default DefaultStreamStaleness).
	StreamStaleness int
	// StreamQueueDepth bounds the pending edge edits (set + remove
	// entries across queued pushes) per session, the companion
	// backpressure knob for few-but-huge deltas (default
	// DefaultStreamQueueDepth).
	StreamQueueDepth int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheSize <= 0 {
		o.CacheSize = DefaultCacheSize
	}
	return o
}

// Engine runs sparsification and solve jobs on a bounded pool and caches
// built artifacts. Safe for concurrent use.
type Engine struct {
	opts     Options
	sem      chan struct{}
	store    *Store
	clusters *ClusterStore // nil when cluster caching is disabled
	coal     *coalescer    // nil when request coalescing is disabled
	c        counters

	mu       sync.Mutex
	building map[string]*buildCall

	streamMu  sync.Mutex
	streams   map[string]*Stream
	streamSeq int64
}

// buildCall coalesces concurrent builds of the same fingerprint
// (singleflight): the first request starts the build, later ones wait on
// done.
type buildCall struct {
	done chan struct{}
	art  *Artifact
	err  error
}

// New creates an engine.
func New(opts Options) *Engine {
	o := opts.withDefaults()
	e := &Engine{
		opts:     o,
		sem:      make(chan struct{}, o.Workers),
		store:    NewStore(o.CacheSize),
		building: make(map[string]*buildCall),
		streams:  make(map[string]*Stream),
	}
	if o.ClusterCacheSize >= 0 {
		e.clusters = NewClusterStore(o.ClusterCacheSize, o.ClusterCacheBytes)
	}
	if o.CoalesceWindow > 0 {
		e.coal = newCoalescer(e, o.CoalesceWindow, o.CoalesceMaxBatch)
	}
	return e
}

// ClusterStore returns the per-cluster artifact store (nil when disabled
// via a negative Options.ClusterCacheSize).
func (e *Engine) ClusterStore() *ClusterStore { return e.clusters }

// Options returns the engine's resolved configuration.
func (e *Engine) Options() Options { return e.opts }

// Stats returns a snapshot of cache and job telemetry.
func (e *Engine) Stats() Stats {
	s := e.c.snapshot()
	s.Evictions = e.store.Evictions()
	s.CacheLen = e.store.Len()
	s.CacheCap = e.store.Capacity()
	if e.clusters != nil {
		s.ClusterHits = e.clusters.Hits()
		s.ClusterMisses = e.clusters.Misses()
		s.ClusterEvictions = e.clusters.Evictions()
		s.ClusterCacheLen = e.clusters.Len()
		s.ClusterCacheCap = e.clusters.Capacity()
		s.ClusterCacheBytes = e.clusters.Bytes()
		s.ClusterCacheMaxBytes = e.clusters.MaxBytes()
	}
	e.streamMu.Lock()
	s.StreamSessions = len(e.streams)
	e.streamMu.Unlock()
	return s
}

// Lookup returns the cached artifact for a fingerprint key (as returned in
// Artifact.Key), without building anything. Like Sparsify, it counts toward
// the hit/miss stats — the key-based solve path is still a cache consult.
func (e *Engine) Lookup(key string) (*Artifact, bool) {
	art, ok := e.store.Get(key)
	if ok {
		e.c.hits.Add(1)
	} else {
		e.c.misses.Add(1)
	}
	return art, ok
}

// LookupDigest returns the artifact a request digest is aliased to (see
// NoteDigest). Only a found artifact counts, as a hit: a caller that
// misses goes on to SparsifyWith, which counts the request itself.
func (e *Engine) LookupDigest(d Digest) (*Artifact, bool) {
	art, ok := e.store.GetDigest(d)
	if ok {
		e.c.hits.Add(1)
	}
	return art, ok
}

// NoteDigest aliases request digest d to the artifact stored under key,
// so LookupDigest finds it while it stays resident. Each artifact keeps
// its four newest digests.
func (e *Engine) NoteDigest(d Digest, key string) { e.store.AddAlias(d, key) }

// BuildOpts are per-request overrides of the engine's sharding defaults
// (the HTTP layer maps ?shards= and ?shard_threshold= onto them). Zero
// values inherit the engine configuration. Overrides participate in the
// artifact identity: the same graph sharded differently is a different
// artifact, so the store key and the build singleflight both incorporate
// the effective shard configuration.
type BuildOpts struct {
	ShardThreshold int
	Shards         int
	// Precond overrides the engine's preconditioner strategy for this
	// build (precond.Auto inherits; the HTTP layer maps ?precond= here).
	Precond precond.Kind
	// Method overrides the sparsification algorithm for this build (nil
	// inherits the engine's Sparsify.Method; the HTTP layer maps ?method=
	// here). Like the other overrides it joins the artifact identity: the
	// same graph built with trace reduction and with effective-resistance
	// sampling is two different sparsifiers.
	Method *sparsify.Method
}

// resolveBuild computes the effective core configuration, the store key,
// and the admission decision for one build request.
func (e *Engine) resolveBuild(g *graph.Graph, fp Fingerprint, bo BuildOpts) (core.Config, string, error) {
	threshold := bo.ShardThreshold
	if threshold <= 0 {
		threshold = e.opts.ShardThreshold
	}
	shards := bo.Shards
	if shards <= 0 {
		shards = e.opts.Shards
	}
	hard := e.opts.HardMaxVertices
	if hard <= 0 && e.opts.MaxVertices > 0 {
		hard = DefaultHardCapFactor * e.opts.MaxVertices
	}
	if hard > 0 && g.N > hard {
		// Report the effective values: hard may come from HardMaxVertices
		// directly rather than the DefaultHardCapFactor derivation.
		detail := ""
		if e.opts.MaxVertices > 0 && e.opts.MaxVertices < hard {
			detail = fmt.Sprintf(" (graphs between %d and %d are served via the sharded pipeline)",
				e.opts.MaxVertices, hard)
		}
		return core.Config{}, "", fmt.Errorf(
			"%w: graph has %d vertices, hard admission cap is %d%s",
			core.ErrTooLarge, g.N, hard, detail)
	}
	// A graph too large for one monolithic factorization job is admitted
	// through the sharded pipeline: clamp the threshold so no single
	// cluster build exceeds the per-job bound.
	if e.opts.MaxVertices > 0 && g.N > e.opts.MaxVertices {
		if threshold <= 0 || threshold > e.opts.MaxVertices {
			threshold = e.opts.MaxVertices
		}
	}
	kind := bo.Precond
	if kind == precond.Auto {
		kind = e.opts.Precond
	}
	method := e.opts.Sparsify.Method
	if bo.Method != nil {
		method = *bo.Method
	}
	cfg := core.Config{
		Sparsify:       e.opts.Sparsify,
		MaxVertices:    hard,
		ShardThreshold: threshold,
		Shards:         shards,
		Precond:        kind,
		// ApplyWorkers stays out of the artifact key: the fan-out is
		// bit-identical to the sequential sweep, so the same graph built
		// with a different worker bound is the same artifact.
		ApplyWorkers: e.opts.ApplyWorkers,
	}
	cfg.Sparsify.Method = method
	if e.clusters != nil {
		// Wire the shared cluster store into every build, so cold sharded
		// builds populate it and incremental rebuilds draw on it.
		cfg.Clusters = e.clusters
		cfg.Factors = e.clusters
	}
	key := fp.Key()
	if threshold > 0 && g.N > threshold {
		// Shard configuration is part of the artifact identity; the plain
		// key stays reserved for monolithic builds so default traffic
		// keeps hitting the same cache entries as before. K is resolved
		// before it enters the key (and the config), so an auto-K request
		// and an explicit one resolving to the same K coalesce onto one
		// artifact instead of building the identical plan twice.
		resolved := shard.ResolveShards(g.N, e.opts.Workers,
			shard.Options{Shards: shards, Threshold: threshold})
		cfg.Shards = resolved
		key = fmt.Sprintf("%s-st%d-k%d", key, threshold, resolved)
	}
	if kind != precond.Auto {
		// An explicit strategy is part of the artifact identity: the same
		// graph solved through a Schwarz and a monolithic preconditioner
		// is two different factorizations. Auto stays keyless so default
		// traffic keeps hitting the same entries as before.
		key = fmt.Sprintf("%s-p%s", key, kind)
	}
	if method != e.opts.Sparsify.Method {
		// A non-default method is part of the artifact identity; requests
		// matching the engine default stay keyless so they keep hitting the
		// same entries as before the override existed.
		key = fmt.Sprintf("%s-m%s", key, method)
	}
	return cfg, key, nil
}

// Sparsify returns the artifact for g under the engine's default build
// configuration, building it on the pool if absent. The boolean reports
// whether the artifact came straight from the cache.
func (e *Engine) Sparsify(ctx context.Context, g *graph.Graph) (*Artifact, bool, error) {
	return e.SparsifyWith(ctx, g, BuildOpts{})
}

// SparsifyWith is Sparsify with per-request sharding overrides.
func (e *Engine) SparsifyWith(ctx context.Context, g *graph.Graph, bo BuildOpts) (*Artifact, bool, error) {
	fp := FingerprintGraph(g)
	cfg, key, err := e.resolveBuild(g, fp, bo)
	if err != nil {
		return nil, false, err
	}
	if art, ok := e.store.Get(key); ok {
		e.c.hits.Add(1)
		return art, true, nil
	}

	// A caller that is already gone must not launch a detached build:
	// repeated disconnect-and-resend of unique graphs would otherwise burn
	// CPU and churn the LRU for waiters that returned immediately. (Once a
	// build has started, mid-build cancellation deliberately lets it finish
	// and fill the cache — that work is already paid for.)
	if err := ctx.Err(); err != nil {
		e.noteCtx(ctx)
		return nil, false, err
	}

	e.mu.Lock()
	c, ok := e.building[key]
	if !ok {
		// Re-check the store under the lock: a concurrent build of this
		// graph may have added its artifact and cleared its building entry
		// between our Get miss above and acquiring e.mu, in which case
		// starting a second build would redo already-cached work. Only a
		// request that actually waits on a build counts as a miss — one
		// served here got the artifact without building and is a hit.
		if art, hit := e.store.Get(key); hit {
			e.mu.Unlock()
			e.c.hits.Add(1)
			return art, true, nil
		}
		c = &buildCall{done: make(chan struct{})}
		e.building[key] = c
		go e.build(fp, key, c, false, func(ctx context.Context) (*core.Sparsifier, error) {
			return core.NewSparsifier(ctx, g, cfg)
		})
	}
	e.mu.Unlock()
	e.c.misses.Add(1)

	ctx, cancel := e.jobCtx(ctx)
	defer cancel()
	select {
	case <-c.done:
		return c.art, false, c.err
	case <-ctx.Done():
		e.noteCtx(ctx)
		return nil, false, ctx.Err()
	}
}

// build runs one artifact construction on the pool: construct creates
// the same core.Sparsifier handle the public API hands out (a cold
// NewSparsifier, or an incremental UpdateSparsifier against a base
// artifact) and build wraps it with the fingerprint identity. It is
// detached from any single request's context: once started, the build
// completes and fills the cache even if every waiter timed out — the
// work is already paid for and the next request for this graph becomes a
// hit. Incremental builds land in their own latency track so fast
// delta rebuilds don't skew the cold-path percentiles.
func (e *Engine) build(fp Fingerprint, key string, c *buildCall, fromUpdate bool, construct func(context.Context) (*core.Sparsifier, error)) {
	enqueued := time.Now()
	e.sem <- struct{}{}
	e.c.jobs.Add(1)
	e.c.inFlight.Add(1)
	start := time.Now()
	// Resolved after construction: an Update request whose rebuild fell
	// back to a full build (monolithic base, rebalance replan, abandoned
	// plan) costs cold-build time and must land in the cold latency track
	// and counters, or the incremental percentiles stop describing delta
	// rebuilds.
	incremental := false
	defer func() {
		track := &e.c.latency
		if incremental {
			track = &e.c.incLatency
		}
		track.Observe(time.Since(enqueued))
		e.c.inFlight.Add(-1)
		<-e.sem
		e.mu.Lock()
		delete(e.building, key)
		e.mu.Unlock()
		close(c.done)
	}()

	// The build runs in a plain goroutine with no http.Server recovery
	// above it, so a panic on a degenerate input would kill the whole
	// process; surface it to waiters as a job error instead.
	defer func() {
		if p := recover(); p != nil {
			e.c.jobErrors.Add(1)
			c.err = fmt.Errorf("engine: building %s panicked: %v (%w)", key, p, ErrInternal)
		}
	}()

	// The build deliberately runs under context.Background(): detachment
	// from the waiters' contexts is the whole point (see above).
	h, err := construct(context.Background())
	if err != nil {
		e.c.jobErrors.Add(1)
		c.err = fmt.Errorf("engine: building %s: %w", key, err)
		return
	}
	// Drop construction scaffolding before publishing: the store's
	// capacity should bound factorizations, and the spanning tree inside
	// Result would otherwise pin the whole input graph per cached entry.
	h.Compact()
	e.c.builds.Add(1)
	if st := h.ShardStats(); fromUpdate && st != nil && st.Incremental {
		incremental = true
		e.c.incrementalBuilds.Add(1)
	}
	if st := h.ShardStats(); st != nil {
		if st.Abandoned {
			e.c.abandonedPlans.Add(1)
		} else {
			e.c.shardedBuilds.Add(1)
			e.c.shardsBuilt.Add(int64(st.Shards))
		}
		e.c.clustersReused.Add(int64(st.ClustersReused))
	}
	if ps := h.PrecondStats(); ps != nil && ps.Kind == precond.Schwarz.String() {
		e.c.schwarzPreconds.Add(1)
	}
	if up := h.UpdateStats(); up != nil && up.Reordered {
		e.c.precondReorders.Add(1)
	}
	c.art = &Artifact{
		Fingerprint: fp,
		Key:         key,
		Handle:      h,
		BuiltAt:     start,
		BuildTime:   time.Since(start),
	}
	e.store.Add(c.art)
}

// Update builds the artifact for "the base artifact's graph plus delta
// d", reusing the base's plan and the cluster store: untouched clusters'
// sparsifiers (and, under Schwarz, their factors) are adopted verbatim,
// the stitch is localized to the dirty clusters, the pencil is patched in
// place when the delta stays inside the dirty region, and the monolithic
// factor is refactored under the base ordering (the streaming-delta fast
// path; see core.UpdateSparsifierPatch). The new artifact is stored under
// the updated graph's own fingerprint key — replacing any whole-graph
// entry already cached under that key, so later plain Sparsify requests
// for the updated graph hit the incremental artifact. The boolean
// reports whether that key was already cached (in which case nothing was
// rebuilt). Returns ErrUnknownKey when baseKey is not resident.
func (e *Engine) Update(ctx context.Context, baseKey string, d graph.Delta) (*Artifact, bool, error) {
	base, ok := e.store.Get(baseKey)
	if !ok {
		return nil, false, fmt.Errorf("%w: %q (evicted or never built)", ErrUnknownKey, baseKey)
	}
	p, err := d.ApplyPatch(base.Handle.BaseGraph())
	if err != nil {
		return nil, false, err
	}
	return e.updateFrom(ctx, base, p)
}

// updateFrom is the shared incremental-build core behind Update and the
// stream sessions: resolve the updated graph's artifact identity, consult
// the store, and otherwise run one singleflighted incremental build from
// the base artifact and the graph patch.
func (e *Engine) updateFrom(ctx context.Context, base *Artifact, p *graph.Patch) (*Artifact, bool, error) {
	newG := p.G
	fp := FingerprintGraph(newG)
	// The updated artifact inherits the base's build configuration, so
	// its store key mirrors what a cold build of newG under the same
	// overrides would use — that is what lets /v2/sparsify traffic for
	// the updated graph hit it.
	bcfg := base.Handle.Config()
	_, key, err := e.resolveBuild(newG, fp, BuildOpts{
		ShardThreshold: bcfg.ShardThreshold,
		Shards:         bcfg.Shards,
		Precond:        bcfg.Precond,
		Method:         &bcfg.Sparsify.Method,
	})
	if err != nil {
		return nil, false, err
	}
	if art, ok := e.store.Get(key); ok {
		e.c.hits.Add(1)
		return art, true, nil
	}
	if err := ctx.Err(); err != nil {
		e.noteCtx(ctx)
		return nil, false, err
	}

	e.mu.Lock()
	c, ok := e.building[key]
	if !ok {
		if art, hit := e.store.Get(key); hit {
			e.mu.Unlock()
			e.c.hits.Add(1)
			return art, true, nil
		}
		c = &buildCall{done: make(chan struct{})}
		e.building[key] = c
		go e.build(fp, key, c, true, func(ctx context.Context) (*core.Sparsifier, error) {
			return core.UpdateSparsifierPatch(ctx, base.Handle, p)
		})
	}
	e.mu.Unlock()
	e.c.misses.Add(1)

	ctx, cancel := e.jobCtx(ctx)
	defer cancel()
	select {
	case <-c.done:
		return c.art, false, c.err
	case <-ctx.Done():
		e.noteCtx(ctx)
		return nil, false, ctx.Err()
	}
}

// SolveResult is the outcome of one preconditioned solve.
type SolveResult struct {
	X          []float64
	Iterations int
	RelRes     float64
	Converged  bool
	// CacheHit reports whether the artifact was served from the store
	// (no sparsification, no refactorization).
	CacheHit bool
	Artifact *Artifact
}

// Solve solves L_G x = b with PCG preconditioned by g's cached sparsifier
// factorization, building the artifact first if needed. tol ≤ 0 selects
// 1e-6.
func (e *Engine) Solve(ctx context.Context, g *graph.Graph, b []float64, tol float64) (*SolveResult, error) {
	return e.SolveWith(ctx, g, b, tol, BuildOpts{})
}

// SolveWith is Solve with per-request build overrides (sharding,
// preconditioner strategy) for the artifact construction.
func (e *Engine) SolveWith(ctx context.Context, g *graph.Graph, b []float64, tol float64, bo BuildOpts) (*SolveResult, error) {
	// Reject a mis-sized rhs before paying for sparsification and
	// factorization; SolveArtifact re-checks for the by-key path.
	if len(b) != g.N {
		return nil, fmt.Errorf("engine: rhs has length %d, graph has %d vertices (%w)",
			len(b), g.N, core.ErrDimension)
	}
	art, hit, err := e.SparsifyWith(ctx, g, bo)
	if err != nil {
		return nil, err
	}
	r, err := e.SolveArtifact(ctx, art, b, tol)
	if err != nil {
		return nil, err
	}
	r.CacheHit = hit
	return r, nil
}

// SolveArtifact solves against an already-obtained artifact (e.g. looked
// up by key), reusing its factorization. The caller's context is threaded
// into the PCG iterations, so a canceled request stops mid-solve instead
// of running to convergence for nobody. When Options.CoalesceWindow is
// set, the request may be held for up to the window and executed as one
// column of a shared block solve with other concurrent requests against
// the same artifact and tolerance.
func (e *Engine) SolveArtifact(ctx context.Context, art *Artifact, b []float64, tol float64) (*SolveResult, error) {
	if len(b) != art.Handle.N() {
		return nil, fmt.Errorf("engine: rhs has length %d, graph has %d vertices (%w)",
			len(b), art.Handle.N(), core.ErrDimension)
	}
	if e.coal != nil {
		return e.coal.solve(ctx, art, b, tol)
	}
	return runJob(e, ctx, func(jctx context.Context) (*SolveResult, error) {
		sol, err := art.Handle.SolveTol(jctx, b, tol)
		if err != nil {
			return nil, err
		}
		return &SolveResult{
			X:          sol.X,
			Iterations: sol.Iterations,
			RelRes:     sol.RelRes,
			Converged:  sol.Converged,
			Artifact:   art,
		}, nil
	})
}

// SolveBatchArtifact solves every right-hand side in bs against one
// artifact as a single block solve: one matrix sweep and one
// preconditioner apply per iteration serve the whole batch, with
// per-column convergence (see core.Sparsifier.SolveBatchTol). It
// occupies one worker slot regardless of batch width and bypasses the
// request coalescer — the caller already batched.
func (e *Engine) SolveBatchArtifact(ctx context.Context, art *Artifact, bs [][]float64, tol float64) ([]*SolveResult, error) {
	for i, b := range bs {
		if len(b) != art.Handle.N() {
			return nil, fmt.Errorf("engine: rhs %d has length %d, graph has %d vertices (%w)",
				i, len(b), art.Handle.N(), core.ErrDimension)
		}
	}
	sols, err := runJob(e, ctx, func(jctx context.Context) ([]*core.Solution, error) {
		e.c.solveBatches.Add(1)
		e.c.observeBatchSize(len(bs))
		return art.Handle.SolveBatchTol(jctx, bs, tol)
	})
	if err != nil {
		return nil, err
	}
	out := make([]*SolveResult, len(sols))
	for i, sol := range sols {
		out[i] = &SolveResult{
			X:          sol.X,
			Iterations: sol.Iterations,
			RelRes:     sol.RelRes,
			Converged:  sol.Converged,
			Artifact:   art,
		}
	}
	return out, nil
}

// CondNumber estimates κ(L_G, L_P) through g's cached artifact.
func (e *Engine) CondNumber(ctx context.Context, g *graph.Graph, seed int64) (float64, error) {
	art, _, err := e.Sparsify(ctx, g)
	if err != nil {
		return 0, err
	}
	return runJob(e, ctx, func(jctx context.Context) (float64, error) {
		return art.Handle.CondNumberWith(jctx, 0, seed)
	})
}

// Fiedler approximates g's Fiedler vector through its cached artifact.
func (e *Engine) Fiedler(ctx context.Context, g *graph.Graph, steps int, tol float64, seed int64) ([]float64, error) {
	art, _, err := e.Sparsify(ctx, g)
	if err != nil {
		return nil, err
	}
	return runJob(e, ctx, func(jctx context.Context) ([]float64, error) {
		return art.Handle.FiedlerWith(jctx, steps, tol, seed)
	})
}

// Partition computes g's spectral bipartition through its cached artifact
// (Fiedler vector split at the median; the paper's §4.3 application).
func (e *Engine) Partition(ctx context.Context, g *graph.Graph) ([]int, error) {
	art, _, err := e.Sparsify(ctx, g)
	if err != nil {
		return nil, err
	}
	return e.PartitionArtifact(ctx, art)
}

// PartitionArtifact computes the spectral bipartition against an
// already-obtained artifact (e.g. looked up by key).
func (e *Engine) PartitionArtifact(ctx context.Context, art *Artifact) ([]int, error) {
	return runJob(e, ctx, func(jctx context.Context) ([]int, error) {
		return art.Handle.Partition(jctx)
	})
}

// Evaluate runs the full Table-1 measurement pipeline for g on the pool.
// It deliberately bypasses the cache: Evaluate times sparsifier
// construction, so serving it a prebuilt artifact would be lying.
func (e *Engine) Evaluate(ctx context.Context, g *graph.Graph, eopts core.EvalOptions) (*core.Outcome, error) {
	return runJob(e, ctx, func(context.Context) (*core.Outcome, error) {
		// Evaluate times construction itself and is deliberately not
		// interruptible mid-measurement; the job context still bounds the
		// caller's wait.
		return core.Evaluate(g, e.opts.Sparsify, eopts)
	})
}

// SparsifyItem is one graph's result from SparsifyAll.
type SparsifyItem struct {
	Index    int
	Artifact *Artifact
	CacheHit bool
	Err      error
}

// SparsifyAll fans gs across the pool and returns per-item results in
// input order. Individual failures land in their item's Err; the batch
// itself always completes.
func (e *Engine) SparsifyAll(ctx context.Context, gs []*graph.Graph) []SparsifyItem {
	out := make([]SparsifyItem, len(gs))
	var wg sync.WaitGroup
	for i, g := range gs {
		wg.Add(1)
		go func(i int, g *graph.Graph) {
			defer wg.Done()
			art, hit, err := e.Sparsify(ctx, g)
			out[i] = SparsifyItem{Index: i, Artifact: art, CacheHit: hit, Err: err}
		}(i, g)
	}
	wg.Wait()
	return out
}

// EvalItem is one graph's result from EvaluateAll.
type EvalItem struct {
	Index   int
	Outcome *core.Outcome
	Err     error
}

// EvaluateAll runs the evaluation pipeline for every graph on the pool and
// returns per-item results in input order.
func (e *Engine) EvaluateAll(ctx context.Context, gs []*graph.Graph, eopts core.EvalOptions) []EvalItem {
	out := make([]EvalItem, len(gs))
	var wg sync.WaitGroup
	for i, g := range gs {
		wg.Add(1)
		go func(i int, g *graph.Graph) {
			defer wg.Done()
			o, err := e.Evaluate(ctx, g, eopts)
			out[i] = EvalItem{Index: i, Outcome: o, Err: err}
		}(i, g)
	}
	wg.Wait()
	return out
}

// jobCtx derives the context one request waits under: caller context plus
// the per-job timeout.
func (e *Engine) jobCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.opts.JobTimeout > 0 {
		return context.WithTimeout(ctx, e.opts.JobTimeout)
	}
	return context.WithCancel(ctx)
}

// noteCtx records why a wait ended early.
func (e *Engine) noteCtx(ctx context.Context) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		e.c.timeouts.Add(1)
	}
}

// runJob executes do on the bounded pool: it waits for a worker slot
// (honoring cancellation and the per-job timeout), runs, and returns the
// result. do receives the derived job context — caller context plus the
// per-job timeout — so context-aware work (PCG, Lanczos) stops when
// either fires instead of burning its worker slot to completion. If the
// caller's wait ends while the job is running anyway (non-context-aware
// work, or the gap between polls), the call returns the context error and
// the job finishes in the background still holding its slot, so the pool
// stays bounded.
func runJob[T any](e *Engine, ctx context.Context, do func(context.Context) (T, error)) (T, error) {
	var zero T
	ctx, cancel := e.jobCtx(ctx)
	defer cancel()
	start := time.Now()
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		e.noteCtx(ctx)
		return zero, ctx.Err()
	}
	e.c.jobs.Add(1)
	e.c.inFlight.Add(1)
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		// Errors (and recovered panics) are counted here rather than at
		// the receive site so jobs whose waiter already timed out still
		// show up in the stats.
		defer func() {
			if p := recover(); p != nil {
				e.c.jobErrors.Add(1)
				ch <- result{zero, fmt.Errorf("engine: job panicked: %v (%w)", p, ErrInternal)}
			}
			e.c.latency.Observe(time.Since(start))
			e.c.inFlight.Add(-1)
			<-e.sem
		}()
		v, err := do(ctx)
		if err != nil {
			e.c.jobErrors.Add(1)
		}
		ch <- result{v, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		e.noteCtx(ctx)
		return zero, ctx.Err()
	}
}

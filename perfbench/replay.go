package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/precond"
	"repro/internal/shard"
	"repro/internal/solver"
	"repro/internal/sparsify"
)

// sparsifyOptions mirrors trsparsed's defaults: -method trace, -alpha 0,
// -rounds 0, -seed 1.
func sparsifyOptions() sparsify.Options {
	return sparsify.Options{Method: sparsify.TraceReduction, Seed: 1}
}

// engineOptions mirrors the engine trsparsed builds from the workload's
// flags and its own flag defaults.
func engineOptions(wl *workload) engine.Options {
	return engine.Options{
		CacheSize:        wl.cache,
		ClusterCacheSize: clusterCacheSize(wl),
		JobTimeout:       2 * time.Minute,
		ShardThreshold:   wl.shardThreshold,
		Sparsify:         sparsifyOptions(),
	}
}

func clusterCacheSize(wl *workload) int {
	if wl.clusterCache > 0 {
		return wl.clusterCache
	}
	return engine.DefaultClusterCacheSize
}

// matchRef reports a replay observation that differs from the HTTP run's.
func matchRef(what string, ref *obs, o obs) error {
	switch {
	case ref.key != o.key:
		return fmt.Errorf("%s: replay key %s, HTTP key %s", what, o.key, ref.key)
	case ref.edges != o.edges:
		return fmt.Errorf("%s %s: replay has %d sparsifier edges, HTTP had %d", what, o.key, o.edges, ref.edges)
	case ref.cached != o.cached:
		return fmt.Errorf("%s %s: replay cached=%v, HTTP cached=%v", what, o.key, o.cached, ref.cached)
	case ref.lgPatched != o.lgPatched || ref.reused != o.reused:
		return fmt.Errorf("%s %s: replay lg_patched=%v factors_reused=%d, HTTP %v and %d",
			what, o.key, o.lgPatched, o.reused, ref.lgPatched, ref.reused)
	case !slices.Equal(ref.iters, o.iters):
		return fmt.Errorf("%s %s: replay PCG iterations %v, HTTP %v", what, o.key, o.iters, ref.iters)
	}
	return nil
}

// engineExec sends the requests straight to an in-process engine with
// the server's configuration: the HTTP run minus transport and JSON.
type engineExec struct {
	ctx     context.Context
	e       *engine.Engine
	streams sessions[*engine.Stream]
}

func newEngineExec(ctx context.Context, wl *workload) *engineExec {
	return &engineExec{ctx: ctx, e: engine.New(engineOptions(wl))}
}

func (x *engineExec) build(g *graph.Graph, ref *obs) (obs, error) {
	start := time.Now()
	art, cached, err := x.e.SparsifyWith(x.ctx, g, engine.BuildOpts{})
	ms := msSince(start)
	if err != nil {
		return obs{}, err
	}
	o := obs{key: art.Key, edges: art.SparsifierGraph().M(), cached: cached, ms: ms}
	return o, matchRef("engine build", ref, o)
}

func (x *engineExec) push(key string, d graph.Delta, ref *obs) (obs, error) {
	s, ok := x.streams.get(key)
	if !ok {
		var err error
		if s, err = x.e.StreamOpen(key); err != nil {
			return obs{}, err
		}
		for _, old := range x.streams.put(key, s) {
			old.Close()
		}
	}
	start := time.Now()
	gen, err := s.Push(d)
	if err != nil {
		return obs{}, err
	}
	art, err := s.Wait(x.ctx, gen)
	ms := msSince(start)
	if err != nil {
		return obs{}, err
	}
	last := s.Stats().Last
	x.streams.move(key, art.Key)
	o := obs{key: art.Key, cached: last.Cached, lgPatched: last.LGPatched, reused: art.Handle.PrecondStats().FactorsReused, ms: ms}
	return o, matchRef("engine update", ref, o)
}

func (x *engineExec) solve(key string, bs [][]float64, ref *obs) (obs, error) {
	start := time.Now()
	art, ok := x.e.Lookup(key)
	if !ok {
		return obs{}, fmt.Errorf("engine has no artifact %s", key)
	}
	var iters []int
	if len(bs) == 1 {
		r, err := x.e.SolveArtifact(x.ctx, art, bs[0], solveTol)
		if err != nil {
			return obs{}, err
		}
		iters = []int{r.Iterations}
	} else {
		rs, err := x.e.SolveBatchArtifact(x.ctx, art, bs, solveTol)
		if err != nil {
			return obs{}, err
		}
		for _, r := range rs {
			iters = append(iters, r.Iterations)
		}
	}
	o := obs{key: key, iters: iters, ms: msSince(start)}
	return o, matchRef("engine solve", ref, o)
}

func (x *engineExec) close() error {
	for _, s := range x.streams.all() {
		s.Close()
	}
	return nil
}

// clusterHitRatio is the engine's cluster-store hits over lookups.
func (x *engineExec) clusterHitRatio() float64 {
	cs := x.e.ClusterStore()
	if cs == nil || cs.Hits()+cs.Misses() == 0 {
		return 0
	}
	return float64(cs.Hits()) / float64(cs.Hits()+cs.Misses())
}

// layerExec replays the requests through each layer's exported
// functions with a span around every call. A cold build runs twice: once
// decomposed into graph.New, shard.NewPlan, shard.Run, lap.Laplacian and
// the preconditioner builder, and once as one untraced
// core.NewSparsifier with the engine's configuration, the reference for
// what the decomposition costs and the handle later edits and solves use.
type layerExec struct {
	ctx   context.Context
	wl    *workload
	rec   *recorder
	disp  *traceDispatcher
	cs    *engine.ClusterStore
	store map[string]*core.Sparsifier
	lru   []string
	// Each stream session's current graph, as the engine keeps it.
	streams sessions[*graph.Graph]
}

// layerStoreSize bounds the handles the replay keeps, like the server's
// -cache; no workload refers back further than this.
const layerStoreSize = 8

func newLayerExec(ctx context.Context, wl *workload, rec *recorder) *layerExec {
	return &layerExec{ctx: ctx, wl: wl, rec: rec, disp: &traceDispatcher{rec: rec},
		cs: engine.NewClusterStore(clusterCacheSize(wl), 0), store: map[string]*core.Sparsifier{}}
}

func (x *layerExec) keep(key string, h *core.Sparsifier) {
	if _, ok := x.store[key]; !ok {
		x.lru = append(x.lru, key)
	}
	x.store[key] = h
	if len(x.lru) > layerStoreSize {
		delete(x.store, x.lru[0])
		x.lru = x.lru[1:]
	}
}

func (x *layerExec) handle(key string) (*core.Sparsifier, error) {
	h, ok := x.store[key]
	if !ok {
		return nil, fmt.Errorf("replay has no handle for %s", key)
	}
	return h, nil
}

// config mirrors engine.resolveBuild for the workload's flags.
func (x *layerExec) config(n int) core.Config {
	cfg := core.Config{Sparsify: sparsifyOptions(), Clusters: x.cs, Factors: x.cs}
	if t := x.wl.shardThreshold; t > 0 && n > t {
		cfg.ShardThreshold = t
		cfg.Shards = shard.ResolveShards(n, runtime.GOMAXPROCS(0), shard.Options{Threshold: t})
	}
	return cfg
}

func (x *layerExec) build(g *graph.Graph, ref *obs) (obs, error) {
	x.rec.op++
	root := x.rec.begin("op.build", 0)
	defer x.rec.end(root, nil)
	id := x.rec.begin("graph.new", root)
	g2, err := graph.New(g.N, slices.Clone(g.Edges))
	x.rec.end(id, nil)
	if err != nil {
		return obs{}, err
	}
	if ref.cached {
		h, err := x.handle(ref.key)
		if err != nil {
			return obs{}, err
		}
		o := obs{key: ref.key, edges: h.SparsifierGraph().M(), cached: true}
		return o, matchRef("layer build", ref, o)
	}
	cfg := x.config(g2.N)
	edges, err := x.decomposed(g2, cfg, root)
	if err != nil {
		return obs{}, err
	}
	id = x.rec.begin("core.new_sparsifier", root)
	h, err := core.NewSparsifier(x.ctx, g2, cfg)
	if err != nil {
		x.rec.end(id, nil)
		return obs{}, err
	}
	h.Compact()
	x.rec.end(id, map[string]float64{"build_reported_ms": durMS(h.BuildTime())})
	if h.SparsifierGraph().M() != edges {
		return obs{}, fmt.Errorf("layer build: decomposed pipeline kept %d edges, core.NewSparsifier %d", edges, h.SparsifierGraph().M())
	}
	x.keep(ref.key, h)
	o := obs{key: ref.key, edges: edges}
	return o, matchRef("layer build", ref, o)
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// decomposed runs core.NewSparsifier's pipeline one exported call at a
// time and returns the sparsifier's edge count.
func (x *layerExec) decomposed(g *graph.Graph, cfg core.Config, root int) (int, error) {
	var res *sparsify.Result
	if cfg.ShardThreshold > 0 {
		opts := shard.Options{Shards: cfg.Shards, Threshold: cfg.ShardThreshold, Sparsify: cfg.Sparsify, Dispatcher: x.disp}
		id := x.rec.begin("shard.plan", root)
		plan, err := shard.NewPlan(x.ctx, g, opts)
		if err != nil {
			x.rec.end(id, nil)
			return 0, err
		}
		x.rec.end(id, map[string]float64{"clusters": float64(plan.K), "cut_edges": float64(len(plan.CutEdges))})
		if float64(len(plan.CutEdges)) > shard.DefaultMaxCutFraction*float64(g.M()) {
			return 0, errors.New("layer build: plan exceeds the expander guard; the server would build monolithically")
		}
		id = x.rec.begin("shard.run", root)
		x.rec.parent = id
		start := x.rec.now()
		res, err = shard.Run(x.ctx, g, plan, opts)
		x.rec.end(id, nil)
		if err != nil {
			return 0, err
		}
		// The stitch runs after the last cluster finishes and until Run
		// returns.
		stitchFrom := start
		x.rec.mu.Lock()
		var runEnd float64
		for _, s := range x.rec.spans {
			if s.Parent == id && s.Name == "shard.cluster" {
				stitchFrom = max(stitchFrom, s.End)
			}
			if s.ID == id {
				runEnd = s.End
			}
		}
		x.rec.mu.Unlock()
		x.rec.add("shard.stitch", id, stitchFrom, runEnd)
	} else {
		id := x.rec.begin("sparsify.run", root)
		var err error
		res, err = sparsify.SparsifyContext(x.ctx, g, cfg.Sparsify)
		if err != nil {
			x.rec.end(id, nil)
			return 0, err
		}
		x.rec.end(id, algo2Attrs(res.Stats))
	}
	id := x.rec.begin("lap.assemble", root)
	lg := lap.Laplacian(g, res.Shift)
	lp := lap.Laplacian(res.Sparsifier, res.Shift)
	x.rec.end(id, map[string]float64{"lg_nnz": float64(lg.NNZ()), "lp_nnz": float64(lp.NNZ())})

	var b precond.Builder = precond.NewMonolithic()
	if res.Shards != nil {
		b = precond.NewSchwarz(res.Shards.Assign, precond.SchwarzOptions{Keys: res.Shards.ClusterKeys, Ctx: x.ctx})
	}
	id = x.rec.begin("precond.build", root)
	_, st, err := b.Build(lp)
	if err != nil {
		x.rec.end(id, nil)
		return 0, err
	}
	x.rec.end(id, map[string]float64{"factor_nnz": float64(st.FactorNNZ), "mem_bytes": float64(st.MemBytes)})
	return res.Sparsifier.M(), nil
}

// algo2Attrs are the times Algorithm 2 reports for its own phases: the
// spanning tree, and everything after it (the recovery rounds).
func algo2Attrs(st sparsify.Stats) map[string]float64 {
	return map[string]float64{
		"tree_reported_ms":    durMS(st.TreeTime),
		"recover_reported_ms": durMS(st.Total - st.TreeTime),
		"total_reported_ms":   durMS(st.Total),
		"edges_recovered":     float64(st.EdgesAdded),
	}
}

func (x *layerExec) push(key string, d graph.Delta, ref *obs) (obs, error) {
	curG, ok := x.streams.get(key)
	if !ok {
		base, err := x.handle(key)
		if err != nil {
			return obs{}, err
		}
		curG = base.BaseGraph()
		x.streams.put(key, curG)
	}
	x.rec.op++
	root := x.rec.begin("op.update", 0)
	defer x.rec.end(root, nil)
	id := x.rec.begin("graph.apply_patch", root)
	p, err := d.ApplyPatch(curG)
	x.rec.end(id, nil)
	if err != nil {
		return obs{}, err
	}
	var h *core.Sparsifier
	if ref.cached {
		if h, err = x.handle(ref.key); err != nil {
			return obs{}, err
		}
	} else {
		base, err := x.handle(key)
		if err != nil {
			return obs{}, err
		}
		id = x.rec.begin("core.update", root)
		h, err = core.UpdateSparsifierPatch(x.ctx, base, p)
		if err != nil {
			x.rec.end(id, nil)
			return obs{}, err
		}
		h.Compact()
		x.rec.end(id, updateAttrs(h))
		x.keep(ref.key, h)
	}
	x.streams.drop(key)
	x.streams.put(ref.key, p.G)
	o := obs{key: ref.key, cached: ref.cached, reused: h.PrecondStats().FactorsReused}
	// A cached edit's artifact was built by an earlier request; the
	// server reports that build's patch flag.
	o.lgPatched = ref.lgPatched
	if u := h.UpdateStats(); u != nil && !ref.cached {
		o.lgPatched = u.LGPatched
	}
	return o, matchRef("layer update", ref, o)
}

// updateAttrs are the phase times and counts core.UpdateSparsifierPatch
// reports for the calls nested inside it.
func updateAttrs(h *core.Sparsifier) map[string]float64 {
	a := map[string]float64{}
	if u := h.UpdateStats(); u != nil {
		a["patch_reported_ms"] = durMS(u.PatchTime)
		a["assemble_reported_ms"] = durMS(u.AssembleTime)
	}
	if st := h.ShardStats(); st != nil {
		a["incremental_reported_ms"] = durMS(st.PlanTime + st.BuildTime + st.StitchTime)
		a["dirty_clusters"] = float64(st.DirtyClusters)
	}
	ps := h.PrecondStats()
	a["precond_build_reported_ms"] = durMS(ps.BuildTime)
	a["factors_reused"] = float64(ps.FactorsReused)
	a["factor_nnz"] = float64(ps.FactorNNZ)
	a["mem_bytes"] = float64(ps.MemBytes)
	return a
}

func (x *layerExec) solve(key string, bs [][]float64, ref *obs) (obs, error) {
	h, err := x.handle(key)
	if err != nil {
		return obs{}, err
	}
	pen, cfg := h.Pencil(), h.Config()
	x.rec.op++
	name := "op.solve"
	if len(bs) > 1 {
		name = "op.batch"
	}
	root := x.rec.begin(name, 0)
	defer x.rec.end(root, nil)
	tp, clock := timed(pen.Pre)
	opts := solver.Options{Tol: solveTol, MaxIter: cfg.MaxIter, CheckEvery: cfg.CheckEvery, Ctx: x.ctx}
	xs := make([][]float64, len(bs))
	for k := range xs {
		xs[k] = make([]float64, len(bs[k]))
	}
	var rs []solver.Result
	var id int
	if len(bs) == 1 {
		id = x.rec.begin("solver.pcg", root)
		rs = []solver.Result{solver.PCG(pen.LG, bs[0], xs[0], tp, opts)}
	} else {
		// core.Sparsifier.SolveBatchTol runs batches of up to 16
		// right-hand sides as one block-PCG panel.
		id = x.rec.begin("solver.block", root)
		rs = solver.PCGBlock(pen.LG, bs, xs, tp, opts)
	}
	var iters []int
	for _, r := range rs {
		if r.Err != nil {
			x.rec.end(id, nil)
			return obs{}, fmt.Errorf("layer solve: %w", r.Err)
		}
		iters = append(iters, r.Iterations)
	}
	total := 0
	for _, it := range iters {
		total += it
	}
	x.rec.end(id, map[string]float64{
		"iters":      float64(total),
		"apply_ms":   clock.ms(),
		"applies":    float64(clock.n.Load()),
		"factor_nnz": float64(h.PrecondStats().FactorNNZ),
		"lg_nnz":     float64(pen.LG.NNZ()),
		"n":          float64(pen.N),
		"rhs":        float64(len(bs)),
	})
	o := obs{key: key, iters: iters}
	return o, matchRef("layer solve", ref, o)
}

func (x *layerExec) close() error { return nil }

// traceDispatcher builds each cluster in-process exactly as shard.Run
// does without a dispatcher, with a span around shard.BuildCluster.
type traceDispatcher struct{ rec *recorder }

func (d *traceDispatcher) Dispatch(ctx context.Context, req *shard.ClusterRequest) (*shard.ClusterResult, error) {
	id := d.rec.begin("shard.cluster", d.rec.parent)
	res, err := shard.BuildCluster(ctx, req)
	if err != nil {
		d.rec.end(id, nil)
		return nil, err
	}
	a := algo2Attrs(res.Stats)
	a["vertices"] = float64(req.Cluster.Local.N)
	d.rec.end(id, a)
	return res, nil
}

// timedPre counts and times every preconditioner application PCG makes.
type timedPre struct {
	inner solver.Preconditioner
	ns    atomic.Int64
	n     atomic.Int64
}

func (t *timedPre) Apply(z, r []float64) {
	start := time.Now()
	t.inner.Apply(z, r)
	t.ns.Add(int64(time.Since(start)))
	t.n.Add(1)
}

func (t *timedPre) ms() float64 { return float64(t.ns.Load()) / float64(time.Millisecond) }

// timedPanelPre also forwards panel applies, so block PCG takes the same
// path through the preconditioner as it would unwrapped.
type timedPanelPre struct{ *timedPre }

func (t *timedPanelPre) ApplyPanel(z, r []float64, s int) {
	start := time.Now()
	t.inner.(solver.BlockPreconditioner).ApplyPanel(z, r, s)
	t.ns.Add(int64(time.Since(start)))
	t.n.Add(1)
}

// timed wraps p for PCG and returns the wrapper with its counters.
func timed(p solver.Preconditioner) (solver.Preconditioner, *timedPre) {
	t := &timedPre{inner: p}
	if _, ok := p.(solver.BlockPreconditioner); ok {
		return &timedPanelPre{t}, t
	}
	return t, t
}

package trsparse

// One benchmark per table and figure of the paper's evaluation (§4).
// Each benchmark runs the corresponding internal/bench driver at a reduced
// scale (override with REPRO_BENCH_SCALE, e.g. REPRO_BENCH_SCALE=1 for the
// default downsized case sizes, larger to approach paper scale) and
// reports the headline quantities as custom benchmark metrics, so
//
//	go test -bench . -benchmem
//
// regenerates the entire evaluation in one command. cmd/experiments prints
// the full formatted tables instead.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/shard"
	"repro/internal/sparsify"
)

func benchScale() float64 {
	if s := os.Getenv("REPRO_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.25
}

// BenchmarkTable1 regenerates Table 1 (sparsification quality: Ts, κ, Ni,
// Ti for GRASS vs the proposed algorithm) across all ten cases.
func BenchmarkTable1(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable1(bench.Table1Options{Scale: scale, Seed: 1}, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var kSum, tSum float64
		for _, r := range rows {
			kSum += r.KappaRatio
			tSum += r.TiRatio
		}
		b.ReportMetric(kSum/float64(len(rows)), "κ-reduction")
		b.ReportMetric(tSum/float64(len(rows)), "Ti-reduction")
	}
}

// BenchmarkTable2 regenerates Table 2 (power-grid transient simulation:
// direct vs GRASS-PCG vs proposed-PCG).
func BenchmarkTable2(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable2(bench.Table2Options{Scale: scale, Seed: 2}, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var sp1, sp2 float64
		for _, r := range rows {
			sp1 += r.Sp1
			sp2 += r.Sp2
		}
		b.ReportMetric(sp1/float64(len(rows)), "Sp1-direct/prop")
		b.ReportMetric(sp2/float64(len(rows)), "Sp2-grass/prop")
	}
}

// BenchmarkTable3 regenerates Table 3 (Fiedler vector computation:
// direct vs sparsifier-preconditioned PCG).
func BenchmarkTable3(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable3(bench.Table3Options{Scale: scale, Seed: 3}, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var sp1, sp2, rel float64
		for _, r := range rows {
			sp1 += r.Sp1
			sp2 += r.Sp2
			rel += r.PropRelErr
		}
		n := float64(len(rows))
		b.ReportMetric(sp1/n, "Sp1-direct/prop")
		b.ReportMetric(sp2/n, "Sp2-grass/prop")
		b.ReportMetric(rel/n, "RelErr")
	}
}

// BenchmarkFig1 regenerates Figure 1 (direct vs iterative transient
// waveforms of a VDD and a GND node; the paper reports <16 mV deviation).
func BenchmarkFig1(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		series, err := bench.RunFig1(bench.Fig1Options{Scale: scale, Seed: 4}, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, s := range series {
			if s.MaxDev > worst {
				worst = s.MaxDev
			}
		}
		b.ReportMetric(worst*1e3, "maxdev-mV")
	}
}

// BenchmarkFig2 regenerates Figure 2 (transient runtime vs fraction of
// recovered off-tree edges, GRASS vs proposed).
func BenchmarkFig2(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		pts, err := bench.RunFig2(bench.Fig2Options{Scale: scale, Seed: 5}, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		// Report the advantage at the sparsest and densest points.
		first := pts[0]
		last := pts[len(pts)-1]
		b.ReportMetric(float64(first.GRASSTtr)/float64(first.PropTtr), "adv@0.05")
		b.ReportMetric(float64(last.GRASSTtr)/float64(last.PropTtr), "adv@0.20")
	}
}

// BenchmarkSparsifyMethods times raw sparsifier construction per method on
// a fixed mesh — the Ts column in isolation.
func BenchmarkSparsifyMethods(b *testing.B) {
	g := gen.Tri2D(120, 120, 7)
	for _, m := range []sparsify.Method{sparsify.TraceReduction, sparsify.GRASS, sparsify.FeGRASS} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sparsify.Sparsify(g, sparsify.Options{Method: m, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineBatch measures the serving path rather than single-shot
// sparsification: batch fan-out across the engine's worker pool, a cold
// solve (sparsify + factorize + PCG), and a cache-hit solve (pure
// factorization reuse). The cold/cache-hit gap is the amortization the
// artifact store buys on repeated traffic against the same graph.
func BenchmarkEngineBatch(b *testing.B) {
	scale := benchScale()
	side := int(40 * scale * 4) // 40 at the default 0.25 scale
	if side < 10 {
		side = 10
	}
	ctx := context.Background()

	b.Run("sparsify-all-cold", func(b *testing.B) {
		gs := make([]*Graph, 8)
		for i := range gs {
			gs[i] = Grid2D(side, side, int64(i+1))
		}
		for i := 0; i < b.N; i++ {
			e := NewEngine(EngineOptions{CacheSize: len(gs)})
			for _, it := range e.SparsifyAll(ctx, gs) {
				if it.Err != nil {
					b.Fatal(it.Err)
				}
			}
		}
	})

	g := Grid2D(side, side, 1)
	rng := rand.New(rand.NewSource(11))
	rhs := make([]float64, g.N)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}

	b.Run("solve-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := NewEngine(EngineOptions{})
			r, err := e.Solve(ctx, g, rhs, 1e-6)
			if err != nil {
				b.Fatal(err)
			}
			if !r.Converged || r.CacheHit {
				b.Fatalf("cold solve: converged=%v hit=%v", r.Converged, r.CacheHit)
			}
		}
	})

	b.Run("solve-cachehit", func(b *testing.B) {
		e := NewEngine(EngineOptions{})
		if _, _, err := e.Sparsify(ctx, g); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		iters := 0
		for i := 0; i < b.N; i++ {
			r, err := e.Solve(ctx, g, rhs, 1e-6)
			if err != nil {
				b.Fatal(err)
			}
			if !r.CacheHit || !r.Converged {
				b.Fatalf("warm solve: converged=%v hit=%v", r.Converged, r.CacheHit)
			}
			iters = r.Iterations
		}
		b.ReportMetric(float64(iters), "pcg-iters")
		b.ReportMetric(e.Stats().HitRate(), "hit-rate")
	})
}

// BenchmarkSparsifierSolve quantifies what the v2 handle API buys on
// repeated solves against one graph: "handle-reuse" builds the Sparsifier
// once and runs PCG through its cached factorization per iteration, while
// "percall-rebuild" builds a fresh handle adopting the same subgraph per
// call, which reassembles the pencil and refactorizes the sparsifier every
// time. Same graph (300×300 grid), same prebuilt sparsifier subgraph, same
// tolerance (the paper's Table-1 rtol of 1e-3) — the gap is pure
// construction amortization and must be ≥10×.
func BenchmarkSparsifierSolve(b *testing.B) {
	ctx := context.Background()
	g := Grid2D(300, 300, 1)
	s, err := New(ctx, g, WithSeed(1), WithTolerance(1e-3))
	if err != nil {
		b.Fatal(err)
	}
	sub := s.SparsifierGraph()
	rng := rand.New(rand.NewSource(11))
	rhs := make([]float64, g.N)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}

	b.Run("handle-reuse", func(b *testing.B) {
		iters := 0
		for i := 0; i < b.N; i++ {
			sol, err := s.Solve(ctx, rhs)
			if err != nil {
				b.Fatal(err)
			}
			if !sol.Converged {
				b.Fatal("solve did not converge")
			}
			iters = sol.Iterations
		}
		b.ReportMetric(float64(iters), "pcg-iters")
	})

	b.Run("percall-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			once, err := New(ctx, g, WithSparsifierGraph(sub), WithTolerance(1e-3))
			if err != nil {
				b.Fatal(err)
			}
			sol, err := once.Solve(ctx, rhs)
			if err != nil {
				b.Fatal(err)
			}
			if sol.Iterations <= 0 {
				b.Fatal("no PCG iterations")
			}
		}
	})
}

// BenchmarkShardedSparsify is the PR-3 acceptance benchmark: monolithic
// vs partition-parallel construction of the same large-grid sparsifier
// with 4 shard workers. Timed region: sparsifier construction only — both
// paths then hand their subgraph to the identical pencil machinery
// (assembly + Cholesky of the result), so including that common
// postprocessing would only dilute the comparison. The resulting PCG
// iteration count is reported per path (through untimed handles, same
// right-hand side) so the quality cost of sharding is visible next to
// the wall-clock win. The sharded path wins twice: each cluster's
// densification rounds factorize a much smaller Laplacian (Cholesky
// fill-in is superlinear, so this helps even on one core), and clusters
// build concurrently on multi-core machines.
func BenchmarkShardedSparsify(b *testing.B) {
	ctx := context.Background()
	// Deliberately NOT scaled by REPRO_BENCH_SCALE: the sharded pipeline
	// exists for large graphs and its advantage only shows at size.
	// 600×600 = 360k vertices — far above any reasonable serving
	// MaxVertices.
	g := Grid2D(600, 600, 1)
	rng := rand.New(rand.NewSource(17))
	rhs := make([]float64, g.N)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	reportQuality := func(b *testing.B, sub *Graph) {
		b.Helper()
		s, err := New(ctx, g, WithSparsifierGraph(sub))
		if err != nil {
			b.Fatal(err)
		}
		sol, err := s.Solve(ctx, rhs)
		if err != nil || !sol.Converged {
			b.Fatalf("solve: converged=%v err=%v", sol != nil && sol.Converged, err)
		}
		b.ReportMetric(float64(sol.Iterations), "pcg-iters")
	}

	b.Run("monolithic", func(b *testing.B) {
		var res *Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = sparsify.Sparsify(g, sparsify.Options{Seed: 1, Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportQuality(b, res.Sparsifier)
	})

	b.Run("sharded", func(b *testing.B) {
		var res *Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = shard.Sparsify(ctx, g, shard.Options{
				Threshold: g.N / 32,
				Sparsify:  sparsify.Options{Seed: 1, Workers: 4},
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if res.Shards == nil {
			b.Fatal("sharded build did not take the sharded path")
		}
		b.ReportMetric(float64(res.Shards.Shards), "shards")
		reportQuality(b, res.Sparsifier)
	})
}

// BenchmarkERSparsify is the PR-7 acceptance benchmark: trace-reduction
// construction (the paper's Algorithm 2, monolithic default) against
// effective-resistance sampling (MethodER) on the same large grid. The
// ER path runs exactly what a default New(g, WithMethod(MethodER)) runs:
// per-cluster sketch estimation and sampling through the shard pipeline
// at the erPlanVertices threshold, so each cluster's sketch solves go
// through a small local factorization instead of one of the whole L_G.
// Timed region: construction only (see BenchmarkShardedSparsify); the PCG
// iteration count of each sparsifier on a shared right-hand side is
// reported untimed so the quality cost of sampling is visible next to
// the build-time win.
func BenchmarkERSparsify(b *testing.B) {
	ctx := context.Background()
	// Same deliberately unscaled graph as BenchmarkShardedSparsify.
	g := Grid2D(600, 600, 1)
	rng := rand.New(rand.NewSource(17))
	rhs := make([]float64, g.N)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	reportQuality := func(b *testing.B, sub *Graph) {
		b.Helper()
		s, err := New(ctx, g, WithSparsifierGraph(sub))
		if err != nil {
			b.Fatal(err)
		}
		sol, err := s.Solve(ctx, rhs)
		if err != nil || !sol.Converged {
			b.Fatalf("solve: converged=%v err=%v", sol != nil && sol.Converged, err)
		}
		b.ReportMetric(float64(sol.Iterations), "pcg-iters")
		b.ReportMetric(float64(sub.M()), "edges")
	}

	b.Run("trace", func(b *testing.B) {
		var res *Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = sparsify.Sparsify(g, sparsify.Options{Seed: 1, Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportQuality(b, res.Sparsifier)
	})

	b.Run("er", func(b *testing.B) {
		var res *Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = shard.Sparsify(ctx, g, shard.Options{
				Threshold: 4096, // erPlanVertices: the default ER routing
				Sparsify:  sparsify.Options{Method: sparsify.ER, Seed: 1, Workers: 4},
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if res.Shards == nil {
			b.Fatal("ER build did not take the sharded path")
		}
		b.ReportMetric(float64(res.Shards.Shards), "shards")
		reportQuality(b, res.Sparsifier)
	})
}

// BenchmarkIncrementalRebuild is the PR-5 acceptance benchmark: after a
// cold sharded build of the 600×600 grid, a ≤1% edge delta confined to
// one corner slab of the grid is applied two ways — "cold" rebuilds the
// updated graph from scratch through the same sharded pipeline, while
// "incremental" goes through Sparsifier.Update, which maps the delta
// onto dirty clusters via the retained plan, adopts every clean
// cluster's sparsifier verbatim and refactors the monolithic factor. The
// gap is the
// shard-level cache's payoff; reused-frac reports the cluster reuse the
// acceptance criteria gate (≥ 80%), and pcg-iters the solve-quality cost
// of the reuse (≤ 1.2× cold).
func BenchmarkIncrementalRebuild(b *testing.B) {
	ctx := context.Background()
	// Same deliberately unscaled graph as the other sharded benchmarks:
	// incremental rebuilds exist for graphs where a cold build hurts.
	g := Grid2D(600, 600, 1)
	opts := []Option{WithShardThreshold(g.N / 32), WithSeed(1), WithWorkers(4)}
	base, err := New(ctx, g, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if !base.Sharded() {
		b.Fatal("base build did not take the sharded path")
	}

	// Reweight the edges of one corner slab of the grid — locality is the
	// incremental workload's defining property — capped at 1% of |E|.
	slab := 6 * 600 // six grid rows of vertices
	capEdges := g.M() / 100
	var d Delta
	for _, e := range g.Edges {
		if e.U < slab && e.V < slab {
			d.Set = append(d.Set, Edge{U: e.U, V: e.V, W: e.W * 1.25})
			if len(d.Set) == capEdges {
				break
			}
		}
	}
	newG, err := d.Apply(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	rhs := make([]float64, g.N)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	reportIters := func(b *testing.B, s *Sparsifier) {
		b.Helper()
		sol, err := s.Solve(ctx, rhs)
		if err != nil || !sol.Converged {
			b.Fatalf("solve: converged=%v err=%v", sol != nil && sol.Converged, err)
		}
		b.ReportMetric(float64(sol.Iterations), "pcg-iters")
	}

	b.Run("cold", func(b *testing.B) {
		var s *Sparsifier
		for i := 0; i < b.N; i++ {
			var err error
			if s, err = New(ctx, newG, opts...); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportIters(b, s)
	})

	b.Run("incremental", func(b *testing.B) {
		var s *Sparsifier
		for i := 0; i < b.N; i++ {
			var err error
			if s, err = base.Update(ctx, d); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := s.ShardStats()
		if st == nil || !st.Incremental {
			b.Fatal("update did not take the incremental path")
		}
		b.ReportMetric(float64(st.ClustersReused)/float64(st.Shards), "reused-frac")
		b.ReportMetric(float64(s.UpdateStats().RefactorRows), "refactor-rows")
		reportIters(b, s)
	})
}

// prebuiltKappa is κ(L_G, L_P) measured through a handle adopting sub.
func prebuiltKappa(b *testing.B, g, sub *Graph) float64 {
	ctx := context.Background()
	s, err := New(ctx, g, WithSparsifierGraph(sub))
	if err != nil {
		b.Fatal(err)
	}
	kappa, err := s.CondNumberWith(ctx, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	return kappa
}

// BenchmarkAblationBeta quantifies the β truncation depth tradeoff of
// eq. (12): deeper BFS costs more scoring time without improving (and
// often slightly worsening) batch selection quality.
func BenchmarkAblationBeta(b *testing.B) {
	g := gen.Tri2D(90, 90, 9)
	for _, beta := range []int{2, 5, 10} {
		b.Run(fmt.Sprintf("beta=%d", beta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sparsify.Sparsify(g, sparsify.Options{Seed: 1, Beta: beta})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(prebuiltKappa(b, g, res.Sparsifier), "κ")
			}
		})
	}
}

// BenchmarkAblationDelta quantifies the SPAI pruning threshold δ of
// Algorithm 1: looser pruning (smaller δ) keeps more of L⁻¹, costing time
// for marginal quality.
func BenchmarkAblationDelta(b *testing.B) {
	g := gen.Tri2D(90, 90, 10)
	for _, delta := range []float64{0.02, 0.1, 0.3} {
		b.Run(fmt.Sprintf("delta=%g", delta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sparsify.Sparsify(g, sparsify.Options{Seed: 1, Delta: delta})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(prebuiltKappa(b, g, res.Sparsifier), "κ")
			}
		})
	}
}

// BenchmarkAblationExclusion quantifies the design choice DESIGN.md calls
// out: the feGRASS path-corridor exclusion vs the weaker endpoint-ball
// filter vs none, measured by the resulting condition number.
func BenchmarkAblationExclusion(b *testing.B) {
	g := gen.Tri2D(100, 100, 8)
	for _, cfg := range []struct {
		name string
		opts sparsify.Options
	}{
		{"corridor-s2", sparsify.Options{Seed: 1, SimilarityHops: 2}},
		{"corridor-s4", sparsify.Options{Seed: 1, SimilarityHops: 4}},
		{"disabled", sparsify.Options{Seed: 1, SimilarityHops: -1}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sparsify.Sparsify(g, cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(prebuiltKappa(b, g, res.Sparsifier), "κ")
			}
		})
	}
}

// BenchmarkStreamUpdate is the streaming acceptance benchmark: the same
// 600×600 grid as BenchmarkIncrementalRebuild, with a ≤1% delta confined
// to the grid's 20×20 corner block — the locality the streaming fast
// path exists for. Two ways to absorb it:
//
//   - "patched" is the delta path (Update with a graph.Patch):
//     localized stitch restricted to the dirty clusters, clean-cluster
//     adoption of the base edges without hashing, and both Laplacians
//     patched in place — O(dirty) work after the dirty-cluster
//     resparsification.
//   - "session" is the serving-layer form of the same path: an
//     engine /v2/stream session absorbing one corner push per op
//     (fingerprint + artifact store + localized rebuild).
//
// A guard before the timed runs requires the patched path to land on
// the PCG iteration count of the same patch with every vertex touched
// (every cluster dirty, the whole cut re-decided).
func BenchmarkStreamUpdate(b *testing.B) {
	ctx := context.Background()
	// Same deliberately unscaled graph as the other sharded benchmarks,
	// clustered finely (≈2.8k-node clusters) so the dirty region maps to
	// a handful of small clusters — the regime streaming serving runs in,
	// where per-update cost should be the dirty clusters, not the grid.
	g := Grid2D(600, 600, 1)
	opts := []Option{WithShardThreshold(g.N / 128), WithSeed(1), WithWorkers(4)}
	base, err := New(ctx, g, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if !base.Sharded() {
		b.Fatal("base build did not take the sharded path")
	}

	// All edges interior to the 20×20 corner block (≈0.1% of |E|, well
	// under the ≤1% acceptance envelope), small enough to land inside a
	// single ~2.8k-node cluster.
	inCorner := func(v int) bool { return v%600 < 20 && v/600 < 20 }
	capEdges := g.M() / 100
	var d Delta
	for _, e := range g.Edges {
		if inCorner(e.U) && inCorner(e.V) {
			// A mild reweight: the patched pencil keeps the base shift
			// (see core.updatedPencil), so the drift it induces must stay
			// below what moves the PCG iteration count.
			d.Set = append(d.Set, Edge{U: e.U, V: e.V, W: e.W * 1.05})
			if len(d.Set) == capEdges {
				break
			}
		}
	}
	// The patched leg gets its input materialized outside the timer: the
	// classified edit script (graph.Patch) a stream session holds anyway.
	p, err := d.ApplyPatch(g)
	if err != nil {
		b.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	rhs := make([]float64, g.N)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	iters := func(s *Sparsifier) int {
		b.Helper()
		sol, err := s.Solve(ctx, rhs)
		if err != nil || !sol.Converged {
			b.Fatalf("solve: converged=%v err=%v", sol != nil && sol.Converged, err)
		}
		return sol.Iterations
	}

	// Acceptance guard: the patched path must land on the exact PCG
	// iteration count of the whole-dirty rebuild — same preconditioner
	// quality, not a faster-but-worse approximation.
	whole := *p
	whole.Touched = make([]int, g.N)
	for v := range whole.Touched {
		whole.Touched[v] = v
	}
	wholeDirty, err := core.UpdateSparsifierPatch(ctx, base, &whole)
	if err != nil {
		b.Fatal(err)
	}
	patched, err := core.UpdateSparsifierPatch(ctx, base, p)
	if err != nil {
		b.Fatal(err)
	}
	if up := patched.UpdateStats(); up == nil || !up.Localized || !up.LGPatched || !up.LPPatched {
		b.Fatalf("delta did not take the full fast path: %+v", up)
	}
	wi, pi := iters(wholeDirty), iters(patched)
	if wi != pi {
		b.Fatalf("pcg iteration counts diverge: whole-dirty %d, patched %d", wi, pi)
	}

	b.Run("patched", func(b *testing.B) {
		var s *Sparsifier
		for i := 0; i < b.N; i++ {
			var err error
			if s, err = core.UpdateSparsifierPatch(ctx, base, p); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := s.ShardStats()
		b.ReportMetric(float64(st.ClustersReused)/float64(st.Shards), "reused-frac")
		b.ReportMetric(float64(st.DirtyClusters), "dirty-clusters")
		b.ReportMetric(float64(s.UpdateStats().PatchTime)/1e6, "patch-ms")
		b.ReportMetric(float64(pi), "pcg-iters")
	})

	b.Run("session", func(b *testing.B) {
		eng := engine.New(engine.Options{
			Workers:        4,
			ShardThreshold: g.N / 128,
			// The corner delta is one multi-thousand-edit push; size the
			// queue so flow control never trips mid-benchmark.
			StreamQueueDepth: 4 * len(d.Set),
			Sparsify:         sparsify.Options{Seed: 1},
		})
		art, _, err := eng.Sparsify(ctx, g)
		if err != nil {
			b.Fatal(err)
		}
		sess, err := eng.StreamOpen(art.Key)
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Compounding corner reweights (alternating factors, net
			// drift ×1.1 per pair) keep every push a distinct graph, so
			// no op degenerates to a whole-graph cache hit.
			f := 1.25
			if i%2 == 1 {
				f = 0.88
			}
			push := Delta{Set: make([]Edge, len(d.Set))}
			for j, e := range d.Set {
				push.Set[j] = Edge{U: e.U, V: e.V, W: e.W * f * float64(1+i/2)}
			}
			gen, err := sess.Push(push)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Wait(ctx, gen); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		last := sess.Stats().Last
		if !last.StitchLocalized || !last.LGPatched || !last.LPPatched {
			b.Fatalf("session rebuild missed the fast path: %+v", last)
		}
		b.ReportMetric(float64(last.ClustersReused), "clusters-reused")
	})
}

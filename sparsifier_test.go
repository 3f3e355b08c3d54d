package trsparse

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestOptionRoundTrip: every functional option lands in the effective
// config field it documents.
func TestOptionRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
		get  func(Config) any
		want any
	}{
		{"WithMethod", WithMethod(FeGRASS), func(c Config) any { return c.Sparsify.Method }, FeGRASS},
		{"WithAlpha", WithAlpha(0.17), func(c Config) any { return c.Sparsify.Alpha }, 0.17},
		{"WithRecoveryRounds", WithRecoveryRounds(3), func(c Config) any { return c.Sparsify.Rounds }, 3},
		{"WithBeta", WithBeta(7), func(c Config) any { return c.Sparsify.Beta }, 7},
		{"WithDelta", WithDelta(0.25), func(c Config) any { return c.Sparsify.Delta }, 0.25},
		{"WithSimilarityHops", WithSimilarityHops(4), func(c Config) any { return c.Sparsify.SimilarityHops }, 4},
		{"WithShiftRel", WithShiftRel(1e-4), func(c Config) any { return c.Sparsify.ShiftRel }, 1e-4},
		{"WithWorkers", WithWorkers(2), func(c Config) any { return c.Sparsify.Workers }, 2},
		{"WithSeed", WithSeed(99), func(c Config) any { return c.Sparsify.Seed }, int64(99)},
		{"WithTolerance", WithTolerance(1e-9), func(c Config) any { return c.Tol }, 1e-9},
		{"WithMaxIterations", WithMaxIterations(123), func(c Config) any { return c.MaxIter }, 123},
		{"WithLanczosSteps", WithLanczosSteps(40), func(c Config) any { return c.LanczosSteps }, 40},
		{"WithTraceProbes", WithTraceProbes(12), func(c Config) any { return c.TraceProbes }, 12},
		{"WithFiedlerSteps", WithFiedlerSteps(8), func(c Config) any { return c.FiedlerSteps }, 8},
		{"WithFiedlerTolerance", WithFiedlerTolerance(1e-7), func(c Config) any { return c.FiedlerTol }, 1e-7},
		{"WithMaxVertices", WithMaxVertices(5000), func(c Config) any { return c.MaxVertices }, 5000},
		{"WithCancelCheckEvery", WithCancelCheckEvery(8), func(c Config) any { return c.CheckEvery }, 8},
		{"WithShardThreshold", WithShardThreshold(4000), func(c Config) any { return c.ShardThreshold }, 4000},
		{"WithShards", WithShards(6), func(c Config) any { return c.Shards }, 6},
		{"WithPrecond", WithPrecond(PrecondSchwarz), func(c Config) any { return c.Precond }, PrecondSchwarz},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := newConfig([]Option{tc.opt})
			if got := tc.get(cfg); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s: config field = %v, want %v", tc.name, got, tc.want)
			}
		})
	}

	// Composite options.
	g := Grid2D(4, 4, 1)
	cfg := newConfig([]Option{WithSparsifierGraph(g)})
	if cfg.Prebuilt != g {
		t.Error("WithSparsifierGraph did not set Prebuilt")
	}
	o := Options{Alpha: 0.3, Rounds: 2, Seed: 5}
	cfg = newConfig([]Option{WithSparsifyOptions(o)})
	if !reflect.DeepEqual(cfg.Sparsify, o) {
		t.Errorf("WithSparsifyOptions: %+v != %+v", cfg.Sparsify, o)
	}
	// Later options win.
	cfg = newConfig([]Option{WithAlpha(0.1), WithAlpha(0.2), nil})
	if cfg.Sparsify.Alpha != 0.2 {
		t.Errorf("option composition: alpha = %g, want 0.2", cfg.Sparsify.Alpha)
	}
}

// TestNewOptionsAreEffective: the options actually steer construction,
// not just the config struct.
func TestNewOptionsAreEffective(t *testing.T) {
	ctx := context.Background()
	g := Grid2D(30, 30, 2)
	lean, err := New(ctx, g, WithAlpha(0.02), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := New(ctx, g, WithAlpha(0.20), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if lean.SparsifierGraph().M() >= dense.SparsifierGraph().M() {
		t.Errorf("alpha not effective: lean %d edges, dense %d",
			lean.SparsifierGraph().M(), dense.SparsifierGraph().M())
	}
	if got := dense.Config().Sparsify.Alpha; got != 0.20 {
		t.Errorf("Config() alpha = %g, want 0.20", got)
	}
}

func TestNewValidation(t *testing.T) {
	ctx := context.Background()

	if _, err := New(ctx, nil); err == nil {
		t.Error("nil graph accepted")
	}

	// Disconnected input → ErrDisconnected.
	disc, err := NewGraph(4, []Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ctx, disc); !errors.Is(err, ErrDisconnected) {
		t.Errorf("disconnected graph: err = %v, want ErrDisconnected", err)
	}

	// Admission limit → ErrTooLarge.
	g := Grid2D(10, 10, 1)
	if _, err := New(ctx, g, WithMaxVertices(50)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized graph: err = %v, want ErrTooLarge", err)
	}

	// Prebuilt sparsifier over a different vertex set → ErrDimension.
	small := Grid2D(5, 5, 1)
	if _, err := New(ctx, g, WithSparsifierGraph(small)); !errors.Is(err, ErrDimension) {
		t.Errorf("mismatched sparsifier: err = %v, want ErrDimension", err)
	}

	// Disconnected prebuilt sparsifier → ErrDisconnected.
	discSub, err := NewGraph(g.N, []Edge{{U: 0, V: 1, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ctx, g, WithSparsifierGraph(discSub)); !errors.Is(err, ErrDisconnected) {
		t.Errorf("disconnected sparsifier: err = %v, want ErrDisconnected", err)
	}
}

func TestSolveValidatesRHS(t *testing.T) {
	ctx := context.Background()
	s, err := New(ctx, Grid2D(6, 6, 1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(ctx, make([]float64, 10)); !errors.Is(err, ErrDimension) {
		t.Errorf("mis-sized rhs: err = %v, want ErrDimension", err)
	}
	if _, err := s.SolveBatch(ctx, [][]float64{make([]float64, s.N()), {1}}); !errors.Is(err, ErrDimension) {
		t.Errorf("mis-sized batch rhs: err = %v, want ErrDimension", err)
	}
}

// TestCancelBeforeNew: an already-canceled context fails fast with
// ErrCanceled (and the context error stays matchable).
func TestCancelBeforeNew(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := New(ctx, Grid2D(50, 50, 1))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("context.Canceled not in chain: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("pre-canceled New took %v", d)
	}
}

// TestCancelMidNew: canceling while construction is running abandons the
// remaining recovery rounds promptly.
func TestCancelMidNew(t *testing.T) {
	g := Grid2D(150, 150, 3)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	started := time.Now()
	go func() {
		_, err := New(ctx, g, WithSeed(3))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// The build may legitimately finish before the cancel lands on a
		// fast machine; only a late *successful* return is acceptable.
		if err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled (or nil if the build won the race)", err)
		}
		if err != nil && time.Since(started) > 10*time.Second {
			t.Fatalf("cancellation took %v, not prompt", time.Since(started))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled New never returned")
	}
}

// TestCancelMidSolve: a solve that cannot converge (tol below machine
// precision) is stopped by cancellation within the poll cadence instead
// of running out its huge iteration budget.
func TestCancelMidSolve(t *testing.T) {
	bg := context.Background()
	g := Grid2D(120, 120, 4)
	s, err := New(bg, g, WithSeed(4), WithMaxIterations(5_000_000), WithCancelCheckEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b := make([]float64, g.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = s.SolveTol(ctx, b, 1e-300)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("context.DeadlineExceeded not in chain: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("canceled solve took %v, not prompt", elapsed)
	}
	// The same solve with a live context keeps working afterwards (the
	// handle is stateless across calls).
	sol, err := s.Solve(bg, b)
	if err != nil || !sol.Converged {
		t.Fatalf("post-cancel solve: %+v, %v", sol, err)
	}
}

// TestSolveBatch: many right-hand sides against one factorization, in
// input order.
func TestSolveBatch(t *testing.T) {
	ctx := context.Background()
	g := Grid2D(20, 20, 5)
	s, err := New(ctx, g, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	bs := make([][]float64, 6)
	for i := range bs {
		bs[i] = make([]float64, g.N)
		for j := range bs[i] {
			bs[i][j] = rng.NormFloat64()
		}
	}
	sols, err := s.SolveBatch(ctx, bs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != len(bs) {
		t.Fatalf("got %d solutions for %d systems", len(sols), len(bs))
	}
	for i, sol := range sols {
		if sol == nil || !sol.Converged {
			t.Fatalf("solution %d: %+v", i, sol)
		}
		// Cross-check against a fresh single solve of the same system.
		single, err := s.Solve(ctx, bs[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range sol.X {
			if sol.X[j] != single.X[j] {
				t.Fatalf("solution %d differs from single solve at %d", i, j)
			}
		}
	}
}

// TestPartitionHandle: the handle's Partition splits an elongated grid
// across its long axis, like the Fiedler sign structure demands.
func TestPartitionHandle(t *testing.T) {
	ctx := context.Background()
	nx, ny := 40, 8
	g := Grid2D(nx, ny, 6)
	s, err := New(ctx, g, WithSeed(6), WithFiedlerSteps(20), WithFiedlerTolerance(1e-8))
	if err != nil {
		t.Fatal(err)
	}
	part, err := s.Partition(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != g.N {
		t.Fatalf("partition length %d, want %d", len(part), g.N)
	}
	if part[0] == part[nx-1] {
		t.Error("partition does not separate the grid's long-axis endpoints")
	}
}

// TestHandleCarriesShift: the handle's pencil uses the construction
// Result.Shift rather than recomputing (or dropping) it.
func TestHandleCarriesShift(t *testing.T) {
	ctx := context.Background()
	g := Grid2D(15, 15, 7)
	// A deliberately non-default regularization makes the drop observable.
	s, err := New(ctx, g, WithSeed(7), WithShiftRel(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	res := s.Result()
	if res == nil {
		t.Fatal("constructed handle has no Result")
	}
	shift := s.Shift()
	for i := range shift {
		if shift[i] != res.Shift[i] {
			t.Fatalf("pencil shift[%d]=%g differs from construction shift %g",
				i, shift[i], res.Shift[i])
		}
	}
	// With the shared shift, λmin of the pencil is 1, so κ(G,G)≈1 even at
	// the larger regularization.
	self, err := New(ctx, g, WithSparsifierGraph(g), WithShiftRel(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	k, err := self.CondNumber(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if k < 0.999 || k > 1.001 {
		t.Errorf("κ(G,G) = %g under shared shift, want ≈1", k)
	}
}

// TestPrecondStrategies: WithPrecond steers the pencil's preconditioner
// construction end to end — every strategy solves the same system to the
// same answer, and the handle reports how it was built.
func TestPrecondStrategies(t *testing.T) {
	ctx := context.Background()
	g := Grid2D(30, 30, 2)
	rng := rand.New(rand.NewSource(4))
	b := make([]float64, g.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	mono, err := New(ctx, g, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if ps := mono.PrecondStats(); ps == nil || ps.Kind != "monolithic" || ps.FactorNNZ <= 0 {
		t.Fatalf("monolithic PrecondStats = %+v", mono.PrecondStats())
	}
	if mono.FactorNNZ() != int(mono.PrecondStats().FactorNNZ) {
		t.Fatal("FactorNNZ accessor disagrees with PrecondStats")
	}

	sch, err := New(ctx, g, WithSeed(1), WithPrecond(PrecondSchwarz))
	if err != nil {
		t.Fatal(err)
	}
	ps := sch.PrecondStats()
	if ps == nil || ps.Kind != "schwarz" || ps.Clusters < 2 || len(ps.PerClusterNNZ) != ps.Clusters {
		t.Fatalf("schwarz PrecondStats = %+v", ps)
	}

	// A sharded build gets the monolithic factor by default, the same
	// factor a forced-monolithic build gets; Schwarz over the plan's
	// clusters is opt-in.
	shardedAuto, err := New(ctx, g, WithSeed(1), WithShardThreshold(300))
	if err != nil {
		t.Fatal(err)
	}
	if k := shardedAuto.PrecondStats().Kind; k != "monolithic" {
		t.Fatalf("sharded auto precond = %q, want monolithic", k)
	}
	shardedMono, err := New(ctx, g, WithSeed(1), WithShardThreshold(300), WithPrecond(PrecondMonolithic))
	if err != nil {
		t.Fatal(err)
	}
	if k := shardedMono.PrecondStats().Kind; k != "monolithic" {
		t.Fatalf("sharded forced-monolithic precond = %q", k)
	}
	if shardedAuto.FactorNNZ() != shardedMono.FactorNNZ() {
		t.Fatalf("sharded auto factor nnz %d, forced monolithic %d", shardedAuto.FactorNNZ(), shardedMono.FactorNNZ())
	}
	shardedSch, err := New(ctx, g, WithSeed(1), WithShardThreshold(300), WithPrecond(PrecondSchwarz))
	if err != nil {
		t.Fatal(err)
	}
	if ps := shardedSch.PrecondStats(); ps.Kind != "schwarz" || ps.Clusters != shardedSch.ShardStats().Shards {
		t.Fatalf("sharded schwarz PrecondStats = %+v, want one block per plan cluster", ps)
	}

	var ref []float64
	for _, s := range []*Sparsifier{mono, sch, shardedAuto, shardedMono, shardedSch} {
		sol, err := s.Solve(ctx, b)
		if err != nil || !sol.Converged {
			t.Fatalf("%s solve: converged=%v err=%v", s.PrecondStats().Kind, sol != nil && sol.Converged, err)
		}
		if ref == nil {
			ref = sol.X
			continue
		}
		// All strategies solve the same L_G x = b; answers agree to the
		// PCG tolerance scale.
		var diff, norm float64
		for i := range ref {
			d := sol.X[i] - ref[i]
			diff += d * d
			norm += ref[i] * ref[i]
		}
		if diff > 1e-6*norm {
			t.Fatalf("%s solution diverges: rel² = %g", s.PrecondStats().Kind, diff/norm)
		}
	}
}

// TestUpdateRejectsNonFiniteWeights: a delta that sets an edge to NaN or
// ±Inf is refused with an error, as New refuses such a graph — not a
// panic in the rebuild and not a failed factorization.
func TestUpdateRejectsNonFiniteWeights(t *testing.T) {
	ctx := context.Background()
	s, err := New(ctx, Grid2D(20, 20, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := s.Update(ctx, Delta{Set: []Edge{{U: 0, V: 1, W: w}}}); err == nil {
			t.Errorf("Update accepted weight %g", w)
		}
	}
}

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

// TestPrecondStrategies: every kind of handle carries the monolithic
// Cholesky factor of its sparsifier — plain and sharded builds, a plan
// the expander guard abandoned, ER above the size where it shards on its
// own, an adopted sparsifier, a patched Update and an Update whose fill
// forced a fresh ordering — reports it in PrecondStats, and solves
// through it.
func TestPrecondStrategies(t *testing.T) {
	ctx := context.Background()
	newHandle := func(g *Graph, opts ...Option) func(t *testing.T) *Sparsifier {
		return func(t *testing.T) *Sparsifier {
			s, err := New(ctx, g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	grid := Grid2D(30, 30, 2)
	sharded := newHandle(grid, WithSeed(1), WithShardThreshold(300))
	// A complete graph: every balanced cut holds most edges, so the
	// expander guard abandons the plan.
	var complete []Edge
	for u := range 40 {
		for v := u + 1; v < 40; v++ {
			complete = append(complete, Edge{U: u, V: v, W: 1})
		}
	}
	expander, err := NewGraph(40, complete)
	if err != nil {
		t.Fatal(err)
	}
	// cornerEdit reweights the edges inside one 6×6 corner block of the
	// 30×30 grid.
	cornerEdit := func(g *Graph, scale float64) Delta {
		var d Delta
		for _, e := range g.Edges {
			if e.U%30 < 6 && e.U/30 < 6 && e.V%30 < 6 && e.V/30 < 6 {
				d.Set = append(d.Set, Edge{U: e.U, V: e.V, W: e.W * scale})
			}
		}
		return d
	}
	cases := []struct {
		name  string
		build func(t *testing.T) *Sparsifier
	}{
		{"plain", newHandle(grid, WithSeed(1))},
		{"sharded", func(t *testing.T) *Sparsifier {
			s := sharded(t)
			if !s.Sharded() {
				t.Fatal("build above the threshold did not shard")
			}
			return s
		}},
		{"expander-abandoned", func(t *testing.T) *Sparsifier {
			s := newHandle(expander, WithSeed(1), WithShardThreshold(10), WithShards(4))(t)
			if st := s.ShardStats(); st == nil || !st.Abandoned {
				t.Fatalf("expander plan not abandoned: %+v", st)
			}
			return s
		}},
		{"er-above-plan-vertices", func(t *testing.T) *Sparsifier {
			s := newHandle(Grid2D(65, 65, 3), WithSeed(1), WithMethod(MethodER))(t)
			if !s.Sharded() {
				t.Fatal("ER build above the plan size did not shard")
			}
			return s
		}},
		{"sparsifier-graph", func(t *testing.T) *Sparsifier {
			return newHandle(grid, WithSparsifierGraph(sharded(t).SparsifierGraph()))(t)
		}},
		{"patched-update", func(t *testing.T) *Sparsifier {
			s, err := sharded(t).Update(ctx, cornerEdit(grid, 1.5))
			if err != nil {
				t.Fatal(err)
			}
			if up := s.UpdateStats(); up == nil || !up.LPPatched {
				t.Fatalf("corner reweight did not patch L_P: %+v", up)
			}
			return s
		}},
		{"reordered-update", func(t *testing.T) *Sparsifier {
			s := sharded(t)
			for step := range 40 {
				next, err := s.Update(ctx, cornerEdit(s.BaseGraph(), 0.05+float64(step%7)))
				if err != nil {
					t.Fatal(err)
				}
				if s = next; s.UpdateStats().Reordered {
					return s
				}
			}
			t.Fatal("no corner edit pushed the fill past the reorder bound")
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t)
			f := s.Pencil().Factor()
			if f == nil {
				t.Fatal("handle carries no monolithic factor")
			}
			ps := s.PrecondStats()
			if ps == nil || ps.Kind != "monolithic" || ps.FactorNNZ != int64(f.NNZ()) || s.FactorNNZ() != f.NNZ() {
				t.Fatalf("PrecondStats %+v disagrees with the factor's %d nnz", ps, f.NNZ())
			}
			b := make([]float64, s.N())
			b[0], b[s.N()-1] = 1, -1
			if sol, err := s.Solve(ctx, b); err != nil || !sol.Converged {
				t.Fatalf("solve: converged=%v err=%v", sol != nil && sol.Converged, err)
			}
		})
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

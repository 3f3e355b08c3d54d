package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

func testOptions() Options {
	return Options{Workers: 4, CacheSize: 8}
}

func TestFingerprintStableUnderEdgeOrder(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3}}
	reversed := []graph.Edge{edges[2], edges[1], edges[0]}
	a := graph.MustNew(3, edges)
	b := graph.MustNew(3, reversed)
	if FingerprintGraph(a).Key() != FingerprintGraph(b).Key() {
		t.Fatalf("edge order changed fingerprint: %s vs %s",
			FingerprintGraph(a).Key(), FingerprintGraph(b).Key())
	}
	c := graph.MustNew(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3.5}})
	if FingerprintGraph(a).Key() == FingerprintGraph(c).Key() {
		t.Fatal("weight change did not change fingerprint")
	}
}

func TestSparsifyAllConcurrent(t *testing.T) {
	e := New(testOptions())
	gs := make([]*graph.Graph, 8)
	for i := range gs {
		gs[i] = gen.Grid2D(20, 20, int64(i+1))
	}
	items := e.SparsifyAll(context.Background(), gs)
	keys := make(map[string]bool)
	for _, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", it.Index, it.Err)
		}
		if it.Artifact == nil || it.Artifact.SparsifierGraph().M() == 0 {
			t.Fatalf("item %d: empty artifact", it.Index)
		}
		keys[it.Artifact.Key] = true
	}
	if len(keys) != len(gs) {
		t.Fatalf("expected %d distinct artifacts, got %d", len(gs), len(keys))
	}
	if s := e.Stats(); s.Builds != int64(len(gs)) {
		t.Fatalf("expected %d builds, got %d", len(gs), s.Builds)
	}
}

func TestSingleflightCoalescesBuilds(t *testing.T) {
	e := New(testOptions())
	g := gen.Grid2D(25, 25, 3)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = e.Sparsify(context.Background(), g)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if s := e.Stats(); s.Builds != 1 {
		t.Fatalf("16 concurrent requests for one graph caused %d builds, want 1", s.Builds)
	}
}

func TestSolveCacheHitSkipsRebuild(t *testing.T) {
	e := New(testOptions())
	g := gen.Grid2D(30, 30, 1)
	b := make([]float64, g.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}

	r1, err := e.Solve(context.Background(), g, b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first solve reported a cache hit")
	}
	if !r1.Converged || r1.RelRes > 1e-6 {
		t.Fatalf("first solve did not converge: iters=%d relres=%g", r1.Iterations, r1.RelRes)
	}

	// Same graph content rebuilt from scratch must hit the cache: no new
	// sparsification, no new factorization.
	g2 := gen.Grid2D(30, 30, 1)
	r2, err := e.Solve(context.Background(), g2, b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("second solve missed the cache")
	}
	if !r2.Converged {
		t.Fatal("second solve did not converge")
	}
	if r2.Artifact.Pencil() != r1.Artifact.Pencil() {
		t.Fatal("second solve used a different factorization")
	}
	s := e.Stats()
	if s.Builds != 1 {
		t.Fatalf("second solve triggered a rebuild: builds=%d", s.Builds)
	}
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("expected 1 hit / 1 miss, got %d / %d", s.Hits, s.Misses)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate = %g, want 0.5", s.HitRate())
	}
}

func TestSolveByLookupKey(t *testing.T) {
	e := New(testOptions())
	g := gen.Grid2D(20, 20, 2)
	art, _, err := e.Sparsify(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := e.Lookup(art.Key)
	if !ok || got != art {
		t.Fatalf("Lookup(%q) = %v, %v", art.Key, got, ok)
	}
	b := make([]float64, g.N)
	b[0], b[g.N-1] = 1, -1
	r, err := e.SolveArtifact(context.Background(), got, b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatalf("solve by key did not converge: relres=%g", r.RelRes)
	}
	if _, ok := e.Lookup("g0-0-0000000000000000"); ok {
		t.Fatal("Lookup of unknown key succeeded")
	}
	// The key-based path counts toward hit/miss stats like inline solves:
	// build miss + key hit + unknown-key miss.
	if s := e.Stats(); s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("lookup path not counted: hits=%d misses=%d", s.Hits, s.Misses)
	}
}

func TestBatchCollectsPerItemErrors(t *testing.T) {
	e := New(testOptions())
	disconnected := graph.MustNew(4, []graph.Edge{{U: 0, V: 1, W: 1}})
	gs := []*graph.Graph{gen.Grid2D(10, 10, 1), disconnected, gen.Grid2D(12, 12, 2)}
	items := e.SparsifyAll(context.Background(), gs)
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("healthy items failed: %v / %v", items[0].Err, items[2].Err)
	}
	if items[1].Err == nil {
		t.Fatal("disconnected graph did not fail")
	}
	if s := e.Stats(); s.JobErrors == 0 {
		t.Fatal("job error not counted")
	}
}

func TestSolveRejectsMisSizedRHSBeforeBuilding(t *testing.T) {
	e := New(testOptions())
	g := gen.Grid2D(10, 10, 1)
	if _, err := e.Solve(context.Background(), g, make([]float64, g.N-1), 1e-6); !errors.Is(err, core.ErrDimension) {
		t.Fatalf("mis-sized rhs: err = %v, want ErrDimension", err)
	}
	if s := e.Stats(); s.Builds != 0 || s.Jobs != 0 {
		t.Fatalf("mis-sized rhs still paid for a build: %+v", s)
	}
}

func TestDegenerateGraphBecomesJobError(t *testing.T) {
	e := New(testOptions())
	// A zero-vertex graph passes graph.New; it used to panic deep inside
	// the sparsifier (recovered into ErrInternal). The handle now rejects
	// it at admission with a clean validation error — which must surface
	// to the waiter as a job error, not crash the process and not be
	// blamed on the engine.
	empty, err := graph.New(0, nil)
	if err != nil {
		t.Skipf("graph.New(0, nil) now rejects empty graphs: %v", err)
	}
	_, _, err = e.Sparsify(context.Background(), empty)
	if err == nil {
		t.Fatal("Sparsify of empty graph succeeded")
	}
	if errors.Is(err, ErrInternal) {
		t.Fatalf("validation error misclassified as engine fault: %v", err)
	}
	if s := e.Stats(); s.JobErrors != 1 {
		t.Fatalf("degenerate graph not counted as job error: %+v", s)
	}
}

func TestContextCancellation(t *testing.T) {
	e := New(testOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := e.Sparsify(ctx, gen.Grid2D(40, 40, 9))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestJobTimeoutStillFillsCache(t *testing.T) {
	opts := testOptions()
	opts.JobTimeout = time.Nanosecond
	e := New(opts)
	g := gen.Grid2D(40, 40, 5)
	_, _, err := e.Sparsify(context.Background(), g)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if s := e.Stats(); s.Timeouts == 0 {
		t.Fatal("timeout not counted")
	}
	// The detached build keeps running and fills the cache for the next
	// request.
	key := FingerprintGraph(g).Key()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, ok := e.Lookup(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background build never filled the cache")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEvaluateAll: Engine.Evaluate runs the Table-1 pipeline on the pool
// for each graph of a mixed set and reports a plausible outcome.
func TestEvaluateAll(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation pipeline is slow in -short mode")
	}
	e := New(testOptions())
	for i, g := range []*graph.Graph{gen.Grid2D(20, 20, 1), gen.Tri2D(15, 15, 2)} {
		o, err := e.Evaluate(context.Background(), g, core.EvalOptions{Seed: 1})
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if o.PCGIters <= 0 || o.Kappa <= 0 {
			t.Fatalf("graph %d: implausible outcome %+v", i, o)
		}
	}
}

// TestJobTimeoutCancelsRunningJob: the per-job timeout context reaches
// the math inside the job — here a Fiedler run whose step budget would
// take far longer than the timeout — so the abandoned job actually stops
// (in-flight drains) instead of burning its worker slot to completion.
func TestJobTimeoutCancelsRunningJob(t *testing.T) {
	opts := testOptions()
	opts.JobTimeout = 300 * time.Millisecond
	e := New(opts)
	g := gen.Grid2D(40, 40, 7)
	// Prime the cache so the Fiedler job's wait is all computation. Under
	// -race the first build can outlive the job timeout; the detached
	// build still fills the cache, so wait for that instead of failing.
	if _, _, err := e.Sparsify(context.Background(), g); err != nil {
		key := FingerprintGraph(g).Key()
		deadline := time.Now().Add(30 * time.Second)
		for {
			if _, ok := e.Lookup(key); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("background build never filled the cache (first error: %v)", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	_, err := e.Fiedler(context.Background(), g, 1_000_000, 1e-6, 7)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded in chain", err)
	}
	// The job itself must notice the cancellation and exit promptly; before
	// the job context was threaded into the handle methods it would grind
	// through all 10⁶ inverse-power steps in the background.
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job still running %v after its timeout", 5*time.Second)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

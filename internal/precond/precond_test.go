package precond_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sparsify"
)

// laplacianOf assembles the regularized Laplacian of g.
func laplacianOf(g *graph.Graph) *sparse.CSC {
	return lap.Laplacian(g, lap.Shift(g, 0))
}

// stripes assigns vertices to k contiguous equal stripes — a crude but
// compact clustering good enough for operator-level tests.
func stripes(n, k int) []int {
	assign := make([]int, n)
	for i := range assign {
		c := i * k / n
		if c >= k {
			c = k - 1
		}
		assign[i] = c
	}
	return assign
}

// TestSchwarzSymmetricSPD: the Schwarz operator must be symmetric
// (xᵀM⁻¹y = yᵀM⁻¹x for random vectors) and positive definite
// (xᵀM⁻¹x > 0), or PCG through it is meaningless.
func TestSchwarzSymmetricSPD(t *testing.T) {
	g := gen.CircuitGrid(18, 18, 0.05, 3)
	a := laplacianOf(g)
	pre, st, err := precond.NewSchwarz(stripes(g.N, 4), precond.SchwarzOptions{}).Build(a)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != "schwarz" || st.FactorNNZ <= 0 || st.MemBytes <= 0 {
		t.Fatalf("stats: %+v", st)
	}

	rng := rand.New(rand.NewSource(7))
	x := make([]float64, g.N)
	y := make([]float64, g.N)
	zx := make([]float64, g.N)
	zy := make([]float64, g.N)
	for trial := 0; trial < 5; trial++ {
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		pre.Apply(zx, x)
		pre.Apply(zy, y)
		var xMy, yMx, xMx float64
		for i := range x {
			xMy += x[i] * zy[i]
			yMx += y[i] * zx[i]
			xMx += x[i] * zx[i]
		}
		if math.Abs(xMy-yMx) > 1e-9*(math.Abs(xMy)+math.Abs(yMx)+1) {
			t.Fatalf("trial %d: not symmetric: xᵀM⁻¹y=%g yᵀM⁻¹x=%g", trial, xMy, yMx)
		}
		if !(xMx > 0) {
			t.Fatalf("trial %d: not positive definite: xᵀM⁻¹x=%g", trial, xMx)
		}
	}
}

// TestSchwarzSingleClusterDegeneratesToMonolithic: with one cluster the
// extended block is the whole matrix and the coarse level is skipped, so
// the Schwarz apply must agree with the monolithic factorization exactly.
func TestSchwarzSingleClusterDegeneratesToMonolithic(t *testing.T) {
	g := gen.Grid2D(14, 14, 5)
	a := laplacianOf(g)
	mono, _, err := precond.NewMonolithic().Build(a)
	if err != nil {
		t.Fatal(err)
	}
	sch, _, err := precond.NewSchwarz(make([]int, g.N), precond.SchwarzOptions{}).Build(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	r := make([]float64, g.N)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	zm := make([]float64, g.N)
	zs := make([]float64, g.N)
	mono.Apply(zm, r)
	sch.Apply(zs, r)
	for i := range zm {
		if math.Abs(zm[i]-zs[i]) > 1e-12*(math.Abs(zm[i])+1) {
			t.Fatalf("apply differs at %d: monolithic %g, schwarz %g", i, zm[i], zs[i])
		}
	}
}

// TestSchwarzBadAssignment: dimension mismatches and gaps in the cluster
// ids must be rejected, not factored.
func TestSchwarzBadAssignment(t *testing.T) {
	g := gen.Grid2D(8, 8, 1)
	a := laplacianOf(g)
	if _, _, err := precond.NewSchwarz(make([]int, g.N-1), precond.SchwarzOptions{}).Build(a); err == nil {
		t.Fatal("short assignment accepted")
	}
	gap := make([]int, g.N)
	for i := range gap {
		gap[i] = 2 * (i % 2) // ids {0, 2}: cluster 1 empty
	}
	if _, _, err := precond.NewSchwarz(gap, precond.SchwarzOptions{}).Build(a); err == nil {
		t.Fatal("non-compact assignment accepted")
	}
	neg := make([]int, g.N)
	neg[3] = -1
	if _, _, err := precond.NewSchwarz(neg, precond.SchwarzOptions{}).Build(a); err == nil {
		t.Fatal("negative cluster id accepted")
	}
}

// TestSchwarzCanceledCtx: a build whose Ctx is already done factorizes
// nothing and fails with the context's error.
func TestSchwarzCanceledCtx(t *testing.T) {
	g := gen.Grid2D(12, 12, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := precond.NewSchwarz(stripes(g.N, 3), precond.SchwarzOptions{Ctx: ctx}).Build(laplacianOf(g))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled build returned %v, want context.Canceled", err)
	}
}

// threeCommunities mirrors the shard test fixture: three dense grid
// communities joined by weak bridges — the structure the Schwarz clusters
// are supposed to exploit.
func threeCommunities(side int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	n := 0
	offsets := make([]int, 3)
	for c := 0; c < 3; c++ {
		offsets[c] = n
		comm := gen.Grid2D(side, side, seed+int64(c))
		for _, e := range comm.Edges {
			edges = append(edges, graph.Edge{U: e.U + n, V: e.V + n, W: e.W})
		}
		n += comm.N
	}
	sz := side * side
	for c := 0; c < 3; c++ {
		a, b := offsets[c], offsets[(c+1)%3]
		for i := 0; i < 3; i++ {
			edges = append(edges, graph.Edge{
				U: a + rng.Intn(sz), V: b + rng.Intn(sz), W: 0.05 + 0.1*rng.Float64(),
			})
		}
	}
	return graph.MustNew(n, edges)
}

// TestSchwarzQualityWithin2x is the preconditioner-layer quality gate: on
// the 3-community graph, PCG through the Schwarz preconditioner of a
// sparsifier must converge within 2x the iterations of PCG through the
// monolithic factorization of the same sparsifier.
func TestSchwarzQualityWithin2x(t *testing.T) {
	g := threeCommunities(16, 11)
	res, err := sparsify.Sparsify(g, sparsify.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shift := res.Shift
	lg := lap.Laplacian(g, shift)
	lp := lap.Laplacian(res.Sparsifier, shift)

	// Cluster by community — exactly what a sharded plan would produce.
	assign := make([]int, g.N)
	for i := range assign {
		assign[i] = i / (16 * 16)
	}

	mono, _, err := precond.NewMonolithic().Build(lp)
	if err != nil {
		t.Fatal(err)
	}
	sch, _, err := precond.NewSchwarz(assign, precond.SchwarzOptions{}).Build(lp)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	b := make([]float64, g.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	run := func(m solver.Preconditioner) solver.Result {
		x := make([]float64, g.N)
		return solver.PCG(lg, b, x, m, solver.Options{Tol: 1e-6})
	}
	rm := run(mono)
	rs := run(sch)
	if !rm.Converged || !rs.Converged {
		t.Fatalf("convergence: monolithic=%v schwarz=%v", rm.Converged, rs.Converged)
	}
	if rs.Iterations > 2*rm.Iterations {
		t.Fatalf("schwarz PCG took %d iterations, monolithic %d — over the 2x budget",
			rs.Iterations, rm.Iterations)
	}
	t.Logf("PCG iterations: monolithic=%d schwarz=%d", rm.Iterations, rs.Iterations)
}

// TestSchwarzParallelApplyConcurrent drives many Apply calls in parallel
// goroutines through one preconditioner — the race-job coverage for the
// pooled scratch and the coarse solve — and checks each matches a
// single-goroutine apply bit for bit.
func TestSchwarzParallelApplyConcurrent(t *testing.T) {
	g := threeCommunities(10, 9)
	a := laplacianOf(g)
	pre, _, err := precond.NewSchwarz(stripes(g.N, 10), precond.SchwarzOptions{}).Build(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	r := make([]float64, g.N)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	want := make([]float64, g.N)
	pre.Apply(want, r)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z := make([]float64, g.N)
			for range 5 {
				pre.Apply(z, r)
				if !slices.Equal(z, want) {
					errs <- "concurrent apply diverged from the single-goroutine result"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

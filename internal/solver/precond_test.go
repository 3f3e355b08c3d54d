package solver_test

import (
	"math/rand"
	"testing"

	"repro/internal/chol"
	"repro/internal/gen"
	"repro/internal/lap"
	"repro/internal/solver"
	"repro/internal/sparsify"
)

// TestSparsifierBeatsIC0 pits the two practical preconditioning styles
// against each other on a mesh: IC(0) on the full Laplacian (classic, no
// fill) versus the complete factorization of a trace-reduction sparsifier
// (the paper's approach). The sparsifier must need fewer PCG iterations —
// that asymmetry is the reason spectral sparsification exists.
func TestSparsifierBeatsIC0(t *testing.T) {
	g := gen.Grid2D(60, 60, 11)
	shift := lap.Shift(g, 0)
	a := lap.Laplacian(g, shift)

	ic, err := incompleteCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sparsify.Sparsify(g, sparsify.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := chol.New(lap.Laplacian(sp.Sparsifier, shift), chol.Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(12))
	b := make([]float64, g.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1 := make([]float64, g.N)
	icRes := solver.PCG(a, b, x1, solver.NewCholPrecond(ic), solver.Options{Tol: 1e-8, MaxIter: 5000})
	x2 := make([]float64, g.N)
	spRes := solver.PCG(a, b, x2, solver.NewCholPrecond(pf), solver.Options{Tol: 1e-8, MaxIter: 5000})

	if !icRes.Converged || !spRes.Converged {
		t.Fatalf("convergence failure: ic=%+v sp=%+v", icRes, spRes)
	}
	t.Logf("IC(0): %d iterations; sparsifier: %d iterations", icRes.Iterations, spRes.Iterations)
	if spRes.Iterations >= icRes.Iterations {
		t.Errorf("sparsifier PCG (%d) not beating IC(0) (%d) on a 60x60 grid",
			spRes.Iterations, icRes.Iterations)
	}
}

// TestIC0BeatsJacobi sanity-checks the preconditioner hierarchy:
// IC(0) < Jacobi < identity in iteration count on a mesh.
func TestIC0BeatsJacobi(t *testing.T) {
	g := gen.Grid2D(40, 40, 13)
	a := lap.Laplacian(g, lap.Shift(g, 0))
	ic, err := incompleteCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	b := make([]float64, g.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	run := func(m solver.Preconditioner) int {
		x := make([]float64, g.N)
		r := solver.PCG(a, b, x, m, solver.Options{Tol: 1e-8, MaxIter: 8000})
		if !r.Converged {
			t.Fatalf("did not converge with %T", m)
		}
		return r.Iterations
	}
	icIt := run(solver.NewCholPrecond(ic))
	jacIt := run(solver.NewJacobi(a))
	idIt := run(solver.Identity{})
	t.Logf("identity %d, Jacobi %d, IC(0) %d", idIt, jacIt, icIt)
	if !(icIt < jacIt && jacIt <= idIt) {
		t.Errorf("preconditioner hierarchy violated: id=%d jac=%d ic=%d", idIt, jacIt, icIt)
	}
}

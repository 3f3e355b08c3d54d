package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chol"
	"repro/internal/gen"
	"repro/internal/lap"
	"repro/internal/sparse"
)

func testSystem(n, extra int, seed int64) (*sparse.CSC, []float64, []float64) {
	g := gen.RandomConnected(n, extra, seed)
	shift := make([]float64, n)
	for i := range shift {
		shift[i] = 0.05
	}
	a := lap.Laplacian(g, shift)
	rng := rand.New(rand.NewSource(seed + 1))
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(want, b)
	return a, b, want
}

func relErr(got, want []float64) float64 {
	var num, den float64
	for i := range got {
		num += (got[i] - want[i]) * (got[i] - want[i])
		den += want[i] * want[i]
	}
	return math.Sqrt(num / den)
}

func TestPCGConvergesIdentityPrecond(t *testing.T) {
	a, b, want := testSystem(50, 80, 1)
	x := make([]float64, 50)
	res := PCG(a, b, x, Identity{}, Options{Tol: 1e-10})
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	if e := relErr(x, want); e > 1e-7 {
		t.Errorf("solution error %g", e)
	}
}

func TestPCGConvergesJacobi(t *testing.T) {
	a, b, want := testSystem(60, 90, 2)
	x := make([]float64, 60)
	res := PCG(a, b, x, NewJacobi(a), Options{Tol: 1e-10})
	if !res.Converged {
		t.Fatalf("Jacobi-PCG did not converge: %+v", res)
	}
	if e := relErr(x, want); e > 1e-7 {
		t.Errorf("solution error %g", e)
	}
}

func TestPCGWithExactPreconditionerConvergesInstantly(t *testing.T) {
	a, b, want := testSystem(40, 60, 3)
	f, err := chol.New(a, chol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 40)
	res := PCG(a, b, x, NewCholPrecond(f), Options{Tol: 1e-10})
	if !res.Converged || res.Iterations > 3 {
		t.Fatalf("exact preconditioner took %d iterations", res.Iterations)
	}
	if e := relErr(x, want); e > 1e-7 {
		t.Errorf("solution error %g", e)
	}
}

func TestPreconditionerReducesIterations(t *testing.T) {
	// 2D grid: CG iteration count grows with condition number; Jacobi or a
	// sparsifier preconditioner must cut it.
	g := gen.Grid2D(30, 30, 4)
	shift := lap.Shift(g, 1e-6)
	a := lap.Laplacian(g, shift)
	rng := rand.New(rand.NewSource(5))
	b := make([]float64, g.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1 := make([]float64, g.N)
	plain := PCG(a, b, x1, Identity{}, Options{Tol: 1e-8, MaxIter: 5000})
	f, err := chol.New(a, chol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, g.N)
	pre := PCG(a, b, x2, NewCholPrecond(f), Options{Tol: 1e-8, MaxIter: 5000})
	if !plain.Converged || !pre.Converged {
		t.Fatalf("convergence failure: plain=%+v pre=%+v", plain, pre)
	}
	if pre.Iterations >= plain.Iterations {
		t.Errorf("preconditioned %d ≥ plain %d iterations", pre.Iterations, plain.Iterations)
	}
}

func TestPCGZeroRHS(t *testing.T) {
	a, _, _ := testSystem(10, 10, 6)
	b := make([]float64, 10)
	x := make([]float64, 10)
	x[3] = 5 // nonzero start must be wiped
	res := PCG(a, b, x, Identity{}, Options{})
	if !res.Converged {
		t.Fatal("zero RHS should converge immediately")
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %g, want 0", i, v)
		}
	}
}

func TestPCGWarmStart(t *testing.T) {
	a, b, want := testSystem(30, 40, 7)
	// Start from the exact solution: should converge in 0 iterations.
	x := append([]float64(nil), want...)
	res := PCG(a, b, x, Identity{}, Options{Tol: 1e-8})
	if !res.Converged || res.Iterations != 0 {
		t.Errorf("warm start took %d iterations", res.Iterations)
	}
}

func TestPCGRespectsMaxIter(t *testing.T) {
	g := gen.Grid2D(25, 25, 8)
	a := lap.Laplacian(g, lap.Shift(g, 1e-9))
	b := make([]float64, g.N)
	rng := rand.New(rand.NewSource(9))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, g.N)
	res := PCG(a, b, x, Identity{}, Options{Tol: 1e-14, MaxIter: 3})
	if res.Converged || res.Iterations != 3 {
		t.Errorf("expected early stop at 3 iterations, got %+v", res)
	}
}

func TestDirectFacade(t *testing.T) {
	a, b, want := testSystem(35, 50, 10)
	d, err := NewDirect(a)
	if err != nil {
		t.Fatal(err)
	}
	x := d.Solve(b)
	if e := relErr(x, want); e > 1e-8 {
		t.Errorf("direct solve error %g", e)
	}
	if d.MemBytes() <= 0 {
		t.Error("MemBytes not positive")
	}
}

func TestJacobiHandlesZeroDiagonal(t *testing.T) {
	tr := sparse.NewTriplet(2, 2)
	tr.Add(0, 0, 2)
	// (1,1) left structurally zero.
	a := tr.ToCSC()
	j := NewJacobi(a)
	z := make([]float64, 2)
	j.Apply(z, []float64{4, 3})
	if z[0] != 2 || z[1] != 3 {
		t.Errorf("Jacobi apply = %v", z)
	}
}

// Direct is a direct-solver facade over chol (ordering + factorization +
// solves), the fixture TestDirectFacade drives.
type Direct struct {
	F *chol.Factor
}

// NewDirect factorizes a with an automatically chosen fill-reducing
// ordering.
func NewDirect(a *sparse.CSC) (*Direct, error) {
	f, err := chol.New(a, chol.Options{})
	if err != nil {
		return nil, err
	}
	return &Direct{F: f}, nil
}

// Solve returns x with A x = b.
func (d *Direct) Solve(b []float64) []float64 { return d.F.Solve(b) }

// MemBytes reports factor storage.
func (d *Direct) MemBytes() int64 { return d.F.MemBytes() }

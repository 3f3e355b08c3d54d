// Package solver provides the preconditioned conjugate gradient (PCG)
// method with pluggable preconditioners (sparse Cholesky of a sparsifier
// Laplacian, Jacobi, identity), plus a direct-solver facade. These are the
// two equation-solving regimes the paper's evaluation compares (Tables 1–3).
package solver

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/chol"
	"repro/internal/sparse"
)

// Preconditioner applies z = M⁻¹ r. Implementations handed to long-lived
// holders (core.Pencil, the serving engine's cached artifacts) must be
// safe for concurrent Apply calls: a batch solve fans PCG across
// goroutines against one shared preconditioner.
type Preconditioner interface {
	Apply(z, r []float64)
}

// Factored is implemented by preconditioners that are backed by a single
// sparse Cholesky factorization of the preconditioning matrix. Callers
// that have exact-factor algorithms available (the similarity-transform
// Lanczos in internal/eig) type-assert against it and fall back to
// Apply-only algorithms otherwise.
type Factored interface {
	Preconditioner
	Factor() *chol.Factor
}

// Identity is the no-op preconditioner (plain CG).
type Identity struct{}

// Apply copies r into z.
func (Identity) Apply(z, r []float64) { copy(z, r) }

// Jacobi is diagonal scaling: z = r / diag(A).
type Jacobi struct{ InvDiag []float64 }

// NewJacobi builds a Jacobi preconditioner from A's diagonal.
func NewJacobi(a *sparse.CSC) *Jacobi {
	d := a.Diag()
	for i, v := range d {
		if v != 0 {
			d[i] = 1 / v
		} else {
			d[i] = 1
		}
	}
	return &Jacobi{InvDiag: d}
}

// Apply multiplies entrywise by the inverse diagonal.
func (j *Jacobi) Apply(z, r []float64) {
	for i := range z {
		z[i] = r[i] * j.InvDiag[i]
	}
}

// CholPrecond applies a sparse Cholesky factorization (typically of the
// sparsifier Laplacian) as the preconditioner. Scratch space is pooled,
// so one CholPrecond may serve concurrent Apply calls.
type CholPrecond struct {
	F       *chol.Factor
	scratch sync.Pool // *cholScratch
}

// cholScratch is one apply's permuted work panel and its split-solve job.
type cholScratch struct {
	y     []float64
	solve splitSolve
}

// splitSolve is one half-step of a solve through the factor's two-core
// schedule: the bins' forward sweeps, or their backward sweeps.
type splitSolve struct {
	sp      *chol.Split
	x, b, y []float64
	s       int
	back    bool
}

func (j *splitSolve) run(part int) {
	if j.back {
		j.sp.Backward(part, j.x, j.y, j.s)
	} else {
		j.sp.Forward(part, j.b, j.y, j.s)
	}
}

// NewCholPrecond wraps a factor.
func NewCholPrecond(f *chol.Factor) *CholPrecond {
	c := &CholPrecond{F: f}
	c.scratch.New = func() any { return &cholScratch{y: make([]float64, f.N)} }
	return c
}

// Apply solves (L Lᵀ) z = r through the factor.
func (c *CholPrecond) Apply(z, r []float64) { c.apply(z, r, 1) }

// apply solves (L Lᵀ) Z = R for an interleaved panel of width s. Inside a
// PCG or PCGBlock call that holds a second core (the team registered for
// z), the solve runs on the factor's two-core schedule, built on its
// first such apply; otherwise, and for every other caller, it runs the
// sequential kernels. Both give the same bits.
func (c *CholPrecond) apply(z, r []float64, s int) {
	sc := c.scratch.Get().(*cholScratch)
	if cap(sc.y) < c.F.N*s {
		sc.y = make([]float64, c.F.N*s)
	}
	y := sc.y[:c.F.N*s]
	t := teamOf(z)
	var sp *chol.Split
	if t != nil {
		sp = c.F.Split()
	}
	switch {
	case sp != nil:
		j := &sc.solve
		*j = splitSolve{sp: sp, x: z, b: r, y: y, s: s}
		t.fork(j)
		sp.Middle(y, s)
		j.back = true
		t.fork(j)
		*j = splitSolve{}
	case s == 1:
		c.F.SolveToNoAlloc(z, r, y)
	default:
		c.F.SolvePanelNoAlloc(z, r, y, s)
	}
	c.scratch.Put(sc)
}

// Factor returns the underlying factorization (Factored).
func (c *CholPrecond) Factor() *chol.Factor { return c.F }

// Result reports the outcome of an iterative solve.
type Result struct {
	Iterations int
	Converged  bool
	RelRes     float64 // final ‖b − A x‖ / ‖b‖
	// Err is non-nil when the solve stopped early because Options.Ctx was
	// canceled or its deadline passed; Converged is false in that case.
	Err error
}

// DefaultCheckEvery is how many PCG iterations run between context polls
// when Options.CheckEvery is unset.
const DefaultCheckEvery = 32

// Options configures PCG.
type Options struct {
	Tol     float64 // relative residual tolerance (default 1e-6)
	MaxIter int     // default 10·n
	// Ctx, when non-nil, makes the iteration cancellable: it is polled
	// every CheckEvery iterations and on entry, and a cancellation stops
	// the solve with Result.Err set to the context error. x holds the
	// best iterate so far.
	Ctx context.Context
	// CheckEvery is the context poll cadence in iterations (default
	// DefaultCheckEvery). Polling costs one atomic load per check, so the
	// default keeps overhead unmeasurable even on tiny systems.
	CheckEvery int
}

// PCG solves A x = b for SPD A starting from the contents of x
// (zero-initialize for a cold start). It overwrites x and returns
// convergence information.
//
// From minSplitN unknowns on, while a P is free, the call takes a second
// core for its length: the products with A, the elementwise updates and a
// CholPrecond's triangular solves each run as two halves, one per core,
// and dots and norms stay serial. The split products gather rows, which
// matches the sequential scatter bit for bit only when A is symmetric
// bit for bit, as every Laplacian this module assembles or patches is.
// Under that condition the result does not depend on whether a second
// core was free.
func PCG(a *sparse.CSC, b, x []float64, m Preconditioner, opts Options) Result {
	n := a.Cols
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("solver: PCG dimension mismatch n=%d len(b)=%d len(x)=%d", n, len(b), len(x)))
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-6
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	if m == nil {
		m = Identity{}
	}
	checkEvery := opts.CheckEvery
	if checkEvery <= 0 {
		checkEvery = DefaultCheckEvery
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return Result{Err: err}
		}
	}
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	q := make([]float64, n)
	t := startTeam(n, z)
	defer t.end()
	mv := newSpmv(a)
	coef := []float64{0}
	xr := &update{x: x, r: r, p: p, q: q, coef: coef, w: 1, xr: true}
	pz := &update{p: p, z: z, coef: coef, w: 1}

	mv.mul(t, x, r, 0)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := norm2(b)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return Result{Converged: true}
	}
	rnorm := norm2(r)
	if rnorm/bnorm <= tol {
		return Result{Converged: true, RelRes: rnorm / bnorm}
	}
	m.Apply(z, r)
	copy(p, z)
	rz := dot(r, z)
	for it := 1; it <= maxIter; it++ {
		if opts.Ctx != nil && it%checkEvery == 0 {
			if err := opts.Ctx.Err(); err != nil {
				return Result{Iterations: it - 1, RelRes: rnorm / bnorm, Err: err}
			}
		}
		mv.mul(t, p, q, 0)
		pq := dot(p, q)
		if pq <= 0 || math.IsNaN(pq) {
			return Result{Iterations: it, Converged: false, RelRes: rnorm / bnorm}
		}
		coef[0] = rz / pq // α
		t.fork(xr)
		rnorm = norm2(r)
		if rnorm/bnorm <= tol {
			return Result{Iterations: it, Converged: true, RelRes: rnorm / bnorm}
		}
		m.Apply(z, r)
		rzNew := dot(r, z)
		coef[0] = rzNew / rz // β
		rz = rzNew
		t.fork(pz)
	}
	return Result{Iterations: maxIter, Converged: false, RelRes: rnorm / bnorm}
}

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func norm2(a []float64) float64 {
	return math.Sqrt(dot(a, a))
}

package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/chol"
	"repro/internal/eig"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// Pencil is a prepared regularized Laplacian pencil (L_G, L_P): the shared
// diagonal shift, both assembled Laplacians, and the Cholesky
// factorization of L_P as the preconditioner. Every
// measurement the library exposes — PCG solves, condition-number and trace
// estimates, Fiedler vectors — consumes exactly this bundle, so preparing
// it once and reusing it is the unit of caching for the serving engine:
// repeated solves against the same (graph, sparsifier) pair skip both
// Laplacian assembly and refactorization.
//
// A Pencil is immutable after construction and safe for concurrent use:
// methods allocate their own vectors and the preconditioner pools its
// scratch. It deliberately does not retain the input graphs: once the
// Laplacians are assembled they are the working representation, and a
// long-lived cache of pencils (the serving engine's store) should not pin
// a redundant copy of every edge list.
type Pencil struct {
	N int // vertex count of the underlying graphs

	Shift  []float64   // shared diagonal regularization (λmin of pencil = 1)
	LG, LP *sparse.CSC // regularized Laplacians of G and P

	// Pre is the preconditioner for L_P, the Cholesky factor behind
	// Factor; PreStats records how it was built.
	Pre      solver.Preconditioner
	PreStats *precond.Stats
}

// NewPencil assembles the pencil for graph g preconditioned by sparsifier
// p and factorizes L_P. shift is the shared regularization diagonal;
// pass nil to compute the default lap.Shift(g, 0). When the sparsifier
// came out of Sparsify, pass its Result.Shift so the pencil matches
// construction.
func NewPencil(g, p *graph.Graph, shift []float64) (*Pencil, error) {
	return newPencilWith(g, p, shift, precond.NewMonolithic())
}

// newPencilWith is NewPencil with the factor built by builder: a fresh
// factorization or a refactor under a base factor's ordering.
func newPencilWith(g, p *graph.Graph, shift []float64, builder precond.Builder) (*Pencil, error) {
	if g == nil || p == nil {
		return nil, fmt.Errorf("core: pencil needs both a graph and a sparsifier")
	}
	if p.N != g.N {
		return nil, fmt.Errorf("core: sparsifier has %d vertices, graph has %d", p.N, g.N)
	}
	if shift == nil {
		shift = lap.Shift(g, 0)
	}
	return newPencilFromLaplacians(g.N, shift, lap.Laplacian(g, shift), lap.Laplacian(p, shift), builder)
}

// newPencilFromLaplacians wraps pre-assembled Laplacians into a Pencil and
// builds the preconditioner — the seam the streaming-delta fast path
// uses to hand in patched matrices instead of paying two full triplet
// assemblies per update.
func newPencilFromLaplacians(n int, shift []float64, lg, lp *sparse.CSC, builder precond.Builder) (*Pencil, error) {
	pen := &Pencil{
		N:     n,
		Shift: shift,
		LG:    lg,
		LP:    lp,
	}
	pre, st, err := builder.Build(pen.LP)
	if err != nil {
		if errors.Is(err, chol.ErrNotPD) {
			err = fmt.Errorf("%w: %w", ErrNotSPD, err)
		}
		return nil, wrapCanceled(fmt.Errorf("core: building %s preconditioner for sparsifier: %w", builder.Kind(), err))
	}
	pen.Pre = pre
	pen.PreStats = st
	return pen, nil
}

// Factor returns the sparse Cholesky factorization backing the
// preconditioner, or nil for a Pencil assembled by hand around another
// preconditioner. It replaces the former public Factor field; see
// MIGRATION.md.
func (p *Pencil) Factor() *chol.Factor {
	if f, ok := p.Pre.(solver.Factored); ok {
		return f.Factor()
	}
	return nil
}

// Solve runs PCG on L_G x = b preconditioned by the built sparsifier
// preconditioner, starting from x (zero-initialize for a cold start; b and
// x have length N).
func (p *Pencil) Solve(b, x []float64, opts solver.Options) solver.Result {
	return solver.PCG(p.LG, b, x, p.Pre, opts)
}

// SolveCtx is Solve with cancellation: ctx is polled every few PCG
// iterations (opts.CheckEvery, default solver.DefaultCheckEvery) and a
// cancellation returns the wrapped ErrCanceled with x holding the best
// iterate so far.
func (p *Pencil) SolveCtx(ctx context.Context, b, x []float64, opts solver.Options) (solver.Result, error) {
	opts.Ctx = ctx
	r := p.Solve(b, x, opts)
	return r, wrapCanceled(r.Err)
}

// SolveBlockCtx runs the multi-RHS block PCG on L_G X = B: all columns
// share each iteration's matrix–panel product and preconditioner panel
// apply (solver.PCGBlock), with per-column convergence and deflation.
// bs and xs are parallel slices of N-vectors; per-column results come
// back in order. Cancellation stops the whole block and returns the
// wrapped ErrCanceled alongside the partial results, with each xs entry
// holding that column's best iterate.
func (p *Pencil) SolveBlockCtx(ctx context.Context, bs, xs [][]float64, opts solver.Options) ([]solver.Result, error) {
	opts.Ctx = ctx
	rs := solver.PCGBlock(p.LG, bs, xs, p.Pre, opts)
	for _, r := range rs {
		if r.Err != nil {
			return rs, wrapCanceled(r.Err)
		}
	}
	return rs, nil
}

// CondNumberCtx is CondNumber with cancellation, polled per Lanczos step.
func (p *Pencil) CondNumberCtx(ctx context.Context, steps int, seed int64) (float64, error) {
	f := p.Factor()
	if f == nil {
		return 0, errors.New("core: condition number needs the pencil's Cholesky factor")
	}
	k, err := eig.CondNumberCtx(ctx, p.LG, f, eig.GenMaxOptions{Steps: steps, Seed: seed})
	return k, wrapCanceled(err)
}

// TraceEstCtx is TraceEst with cancellation, polled per Hutchinson probe.
func (p *Pencil) TraceEstCtx(ctx context.Context, probes int, seed int64) (float64, error) {
	t, err := eig.TraceEstApplyCtx(ctx, p.LG, p.Pre.Apply, probes, seed)
	return t, wrapCanceled(err)
}

// FiedlerCtx is Fiedler with cancellation: ctx is polled per inverse-power
// step and inside each inner PCG solve.
func (p *Pencil) FiedlerCtx(ctx context.Context, steps int, tol float64, seed int64) ([]float64, error) {
	// Warm start each solve from the previous one's scale: the normalized
	// RHS converges to the Fiedler direction, so x ≈ (1/λ₂)·b.
	prevScale := 0.0
	v, err := eig.FiedlerCtx(ctx, p.N, steps, seed, func(dst, b []float64) {
		for i := range dst {
			dst[i] = b[i] * prevScale
		}
		solver.PCG(p.LG, b, dst, p.Pre, solver.Options{Tol: tol, Ctx: ctx})
		var s float64
		for i := range dst {
			s += dst[i] * b[i]
		}
		prevScale = s
	})
	return v, wrapCanceled(err)
}

// CondNumber estimates the largest generalized eigenvalue of the
// preconditioned pencil by Lanczos: λmax(L_P⁻¹ L_G), exactly κ(L_G, L_P),
// the paper's quality metric. steps ≤ 0 selects the default (80).
func (p *Pencil) CondNumber(steps int, seed int64) float64 {
	k, _ := p.CondNumberCtx(context.Background(), steps, seed)
	return k
}

// TraceEst estimates Tr(L_P⁻¹ L_G) with a Hutchinson stochastic
// estimator; probes ≤ 0 selects the default (30).
func (p *Pencil) TraceEst(probes int, seed int64) float64 {
	t, _ := p.TraceEstCtx(context.Background(), probes, seed)
	return t
}

// Fiedler approximates the Fiedler vector of G by `steps` rounds of inverse
// power iteration, each inner system solved by PCG through this pencil.
func (p *Pencil) Fiedler(steps int, tol float64, seed int64) []float64 {
	v, _ := p.FiedlerCtx(context.Background(), steps, tol, seed)
	return v
}

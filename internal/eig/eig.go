// Package eig provides the eigenvalue machinery the evaluation needs:
// an estimate of the relative condition number κ(L_G, L_S) =
// λmax(L_S⁻¹ L_G) via generalized Lanczos (the paper's κ column in
// Table 1), and inverse power iteration for the Fiedler vector used in
// spectral partitioning (Table 3). Because both Laplacians carry the same
// diagonal regularization and S ⊆ G, λmin of the pencil is exactly 1, so
// κ equals λmax (paper footnote 1).
package eig

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/chol"
	"repro/internal/sparse"
)

// GenMaxOptions configures CondNumber.
type GenMaxOptions struct {
	Steps int   // Lanczos steps (default 80, capped at n)
	Seed  int64 // RNG seed for the start vector
}

// CondNumber estimates κ(L_G, L_S) = λmax(L_S⁻¹ L_G) given L_G and a
// Cholesky factorization of L_S. It runs Lanczos on the symmetric operator
// C = L⁻¹ P L_G Pᵀ L⁻ᵀ (P the factor's fill-reducing permutation), whose
// spectrum equals that of L_S⁻¹ L_G, and returns the largest eigenvalue of
// the resulting tridiagonal matrix.
func CondNumber(lg *sparse.CSC, fs *chol.Factor, opts GenMaxOptions) float64 {
	k, _ := CondNumberCtx(context.Background(), lg, fs, opts)
	return k
}

// CondNumberCtx is CondNumber with cancellation: the context is polled
// before every Lanczos step (each step costs two triangular solves plus a
// matrix-vector product, so per-step polling bounds cancellation latency by
// one step). On cancellation it returns the context error and zero.
func CondNumberCtx(ctx context.Context, lg *sparse.CSC, fs *chol.Factor, opts GenMaxOptions) (float64, error) {
	n := lg.Cols
	steps := opts.Steps
	if steps <= 0 {
		steps = 80
	}
	if steps > n {
		steps = n
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))

	v := make([]float64, n) // current Lanczos vector (permuted space)
	vPrev := make([]float64, n)
	w := make([]float64, n)
	tmpO := make([]float64, n) // original-order scratch
	tmpO2 := make([]float64, n)

	for i := range v {
		v[i] = rng.NormFloat64()
	}
	normalize(v)

	applyC := func(dst, src []float64) {
		// dst = L⁻¹ P L_G Pᵀ L⁻ᵀ src  (all in permuted space)
		copy(dst, src)
		fs.LTSolve(dst) // dst = L⁻ᵀ src
		for newIdx, oldIdx := range fs.Perm {
			tmpO[oldIdx] = dst[newIdx]
		}
		lg.MulVec(tmpO, tmpO2)
		for newIdx, oldIdx := range fs.Perm {
			dst[newIdx] = tmpO2[oldIdx]
		}
		fs.LSolve(dst)
	}

	alpha := make([]float64, 0, steps)
	beta := make([]float64, 0, steps) // beta[k] couples step k and k+1
	var betaPrev float64
	for k := 0; k < steps; k++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		applyC(w, v)
		if betaPrev != 0 {
			for i := range w {
				w[i] -= betaPrev * vPrev[i]
			}
		}
		a := dot(w, v)
		alpha = append(alpha, a)
		for i := range w {
			w[i] -= a * v[i]
		}
		b := math.Sqrt(dot(w, w))
		if b < 1e-13 {
			break
		}
		beta = append(beta, b)
		betaPrev = b
		vPrev, v, w = v, w, vPrev
		for i := range v {
			v[i] /= b
		}
	}
	if len(beta) >= len(alpha) && len(beta) > 0 {
		beta = beta[:len(alpha)-1]
	}
	return TridiagMax(alpha, beta), nil
}

// TridiagMax returns the largest eigenvalue of the symmetric tridiagonal
// matrix with diagonal alpha and off-diagonal beta (len(beta) =
// len(alpha)−1), by bisection on the Sturm sequence count.
func TridiagMax(alpha, beta []float64) float64 {
	n := len(alpha)
	if n == 0 {
		return 0
	}
	// Gershgorin bounds.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(beta[i-1])
		}
		if i < n-1 {
			r += math.Abs(beta[i])
		}
		if alpha[i]-r < lo {
			lo = alpha[i] - r
		}
		if alpha[i]+r > hi {
			hi = alpha[i] + r
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-12*(1+math.Abs(hi)); iter++ {
		mid := 0.5 * (lo + hi)
		if countBelow(alpha, beta, mid) < n {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// countBelow returns the number of eigenvalues of the tridiagonal matrix
// strictly less than x (Sturm sequence).
func countBelow(alpha, beta []float64, x float64) int {
	count := 0
	d := 1.0
	for i := range alpha {
		var b2 float64
		if i > 0 {
			b2 = beta[i-1] * beta[i-1]
		}
		if d == 0 {
			d = 1e-300
		}
		d = alpha[i] - x - b2/d
		if d < 0 {
			count++
		}
	}
	return count
}

// PowerCond estimates κ via straightforward power iteration with the
// Rayleigh quotient (xᵀ L_G x)/(xᵀ L_S x); slower to converge than Lanczos
// but useful as an independent cross-check in tests.
func PowerCond(lg, ls *sparse.CSC, fs *chol.Factor, steps int, seed int64) float64 {
	n := lg.Cols
	rng := rand.New(rand.NewSource(seed + 7))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	normalize(x)
	for k := 0; k < steps; k++ {
		lg.MulVec(x, y)
		fs.SolveTo(x, y)
		normalize(x)
	}
	lg.MulVec(x, y)
	num := dot(x, y)
	ls.MulVec(x, y)
	den := dot(x, y)
	return num / den
}

// Fiedler computes an approximation to the Fiedler vector (eigenvector of
// the second-smallest Laplacian eigenvalue) by `steps` rounds of inverse
// power iteration, deflating the constant vector. solve must apply an
// (approximate) inverse of the regularized Laplacian; iterations counts
// reported by the solver can be accumulated by the caller via the closure.
func Fiedler(n, steps int, seed int64, solve func(dst, b []float64)) []float64 {
	x, _ := FiedlerCtx(context.Background(), n, steps, seed, solve)
	return x
}

// FiedlerCtx is Fiedler with cancellation: the context is polled before
// every inverse-power step (each step is one full inner solve). The inner
// solver should additionally honor the same context for sub-step
// cancellation latency. On cancellation it returns the context error and a
// nil vector.
func FiedlerCtx(ctx context.Context, n, steps int, seed int64, solve func(dst, b []float64)) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed + 13))
	x := make([]float64, n)
	b := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	deflate(x)
	normalize(x)
	for k := 0; k < steps; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		copy(b, x)
		solve(x, b)
		deflate(x)
		normalize(x)
	}
	// A cancellation that landed during the final solve left x holding a
	// partial iterate; without this check it would be returned as a valid
	// vector with a nil error.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return x, nil
}

// deflate removes the component along the all-ones vector.
func deflate(x []float64) {
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func normalize(x []float64) {
	n := math.Sqrt(dot(x, x))
	if n == 0 {
		return
	}
	for i := range x {
		x[i] /= n
	}
}

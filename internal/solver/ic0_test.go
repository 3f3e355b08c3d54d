package solver_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/chol"
	"repro/internal/gen"
	"repro/internal/lap"
	"repro/internal/sparse"
)

// incompleteCholesky computes the zero-fill incomplete Cholesky
// factorization IC(0): a lower-triangular L with the sparsity pattern of
// tril(A) such that (L Lᵀ)|pattern = A|pattern, in the natural ordering.
// For the SDD M-matrices this project works with, IC(0) exists
// (Meijerink–van der Vorst); a nonpositive pivot on other inputs returns
// chol.ErrNotPD. It is the classic cheap preconditioner the sparsifier
// approach competes with (TestSparsifierBeatsIC0): no fill to store, but
// only a constant-factor condition-number improvement on mesh Laplacians.
func incompleteCholesky(a *sparse.CSC) (*chol.Factor, error) {
	n := a.Cols
	if a.Rows != n {
		return nil, fmt.Errorf("ic0: matrix must be square, got %dx%d", a.Rows, n)
	}
	low := a.Lower()
	l := &sparse.CSC{
		Rows:   n,
		Cols:   n,
		ColPtr: append([]int(nil), low.ColPtr...),
		RowIdx: append([]int(nil), low.RowIdx...),
		Val:    make([]float64, low.NNZ()),
	}

	// rowCols[i] and rowVals[i] hold the entries L[i][k] produced so far as
	// parallel slices sorted by k (columns are processed in order).
	rowCols := make([][]int32, n)
	rowVals := make([][]float64, n)

	dotRows := func(i, j int) float64 {
		ci, vi := rowCols[i], rowVals[i]
		cj, vj := rowCols[j], rowVals[j]
		var s float64
		for x, y := 0, 0; x < len(ci) && y < len(cj); {
			switch {
			case ci[x] < cj[y]:
				x++
			case ci[x] > cj[y]:
				y++
			default:
				s += vi[x] * vj[y]
				x++
				y++
			}
		}
		return s
	}

	for j := 0; j < n; j++ {
		p0 := l.ColPtr[j]
		if p0 >= l.ColPtr[j+1] || l.RowIdx[p0] != j {
			return nil, fmt.Errorf("ic0: IC(0) requires a structurally present diagonal at %d", j)
		}
		d := low.Val[p0] - dotRows(j, j)
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w (IC(0) pivot %d, value %g)", chol.ErrNotPD, j, d)
		}
		d = math.Sqrt(d)
		l.Val[p0] = d
		rowCols[j] = append(rowCols[j], int32(j))
		rowVals[j] = append(rowVals[j], d)
		for p := p0 + 1; p < l.ColPtr[j+1]; p++ {
			i := l.RowIdx[p]
			v := (low.Val[p] - dotRows(i, j)) / d
			l.Val[p] = v
			rowCols[i] = append(rowCols[i], int32(j))
			rowVals[i] = append(rowVals[i], v)
		}
	}

	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return &chol.Factor{N: n, L: l, Perm: perm}, nil
}

func TestIncompleteMatchesCompleteOnTree(t *testing.T) {
	// A tree Laplacian in leaf-first order has zero fill, so IC(0) equals
	// the exact factorization and solves exactly.
	n := 50
	g := gen.Path(n)
	shift := make([]float64, n)
	for i := range shift {
		shift[i] = 0.1
	}
	a := lap.Laplacian(g, shift)
	f, err := incompleteCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	x := f.Solve(b)
	r := make([]float64, n)
	a.MulVec(x, r)
	for i := range r {
		if math.Abs(r[i]-b[i]) > 1e-9 {
			t.Fatalf("residual[%d] = %g (IC(0) should be exact on a path)", i, r[i]-b[i])
		}
	}
}

func TestIncompletePatternPreserved(t *testing.T) {
	g := gen.Grid2D(12, 12, 1)
	a := lap.Laplacian(g, lap.Shift(g, 1e-3))
	f, err := incompleteCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	low := a.Lower()
	if f.NNZ() != low.NNZ() {
		t.Errorf("IC(0) nnz %d ≠ tril(A) nnz %d (zero fill violated)", f.NNZ(), low.NNZ())
	}
}

func TestIncompleteMatchesOnPattern(t *testing.T) {
	// (L Lᵀ) must reproduce A exactly on A's own pattern.
	g := gen.RandomConnected(25, 20, 2)
	a := lap.Laplacian(g, lap.Shift(g, 1e-2))
	f, err := incompleteCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	ld := f.L.Dense()
	n := a.Cols
	prod := make([][]float64, n)
	for i := range prod {
		prod[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += ld[i][k] * ld[j][k]
			}
			prod[i][j] = s
		}
	}
	for j := 0; j < n; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowIdx[k]
			if i < j {
				continue
			}
			if math.Abs(prod[i][j]-a.Val[k]) > 1e-9 {
				t.Fatalf("LLᵀ(%d,%d) = %g, A = %g", i, j, prod[i][j], a.Val[k])
			}
		}
	}
}

func TestIncompleteIsApproximateOnGrid(t *testing.T) {
	// On a grid (which has fill), IC(0) is only approximate: solving with
	// it must leave a nonzero residual, but a bounded one.
	g := gen.Grid2D(10, 10, 3)
	a := lap.Laplacian(g, lap.Shift(g, 1e-2))
	f, err := incompleteCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Cols
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := f.Solve(b)
	r := make([]float64, n)
	a.MulVec(x, r)
	var res, bn float64
	for i := range r {
		res += (r[i] - b[i]) * (r[i] - b[i])
		bn += b[i] * b[i]
	}
	rel := math.Sqrt(res / bn)
	if rel < 1e-12 {
		t.Error("IC(0) residual suspiciously zero on a grid (fill ignored?)")
	}
	if rel > 1 {
		t.Errorf("IC(0) relative residual %g too large to be useful", rel)
	}
}

func TestIncompleteRejectsIndefinite(t *testing.T) {
	tr := sparse.NewTriplet(2, 2)
	tr.Add(0, 0, 1)
	tr.Add(0, 1, 2)
	tr.Add(1, 0, 2)
	tr.Add(1, 1, 1)
	if _, err := incompleteCholesky(tr.ToCSC()); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestIncompleteMissingDiagonalRejected(t *testing.T) {
	tr := sparse.NewTriplet(2, 2)
	tr.Add(0, 0, 1)
	tr.Add(1, 0, -0.5)
	tr.Add(0, 1, -0.5)
	// (1,1) structurally absent.
	if _, err := incompleteCholesky(tr.ToCSC()); err == nil {
		t.Fatal("missing diagonal accepted")
	}
}

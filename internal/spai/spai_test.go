package spai

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/chol"
	"repro/internal/gen"
	"repro/internal/lap"
	"repro/internal/order"
	"repro/internal/sparse"
)

func factorOf(n, extra int, seed int64) (*sparse.CSC, *chol.Factor) {
	g := gen.RandomConnected(n, extra, seed)
	shift := make([]float64, n)
	for i := range shift {
		shift[i] = 0.05
	}
	a := lap.Laplacian(g, shift)
	f, err := chol.New(a, chol.Options{Perm: order.ComputeMinDegree(cscAdj{a})})
	if err != nil {
		panic(err)
	}
	return a, f
}

// cscAdj is a's off-diagonal pattern as an ordering input, visited the
// way chol.New visits it.
type cscAdj struct{ a *sparse.CSC }

func (c cscAdj) Len() int { return c.a.Cols }
func (c cscAdj) Visit(u int, fn func(v int)) {
	for p := c.a.ColPtr[u]; p < c.a.ColPtr[u+1]; p++ {
		if v := c.a.RowIdx[p]; v != u {
			fn(v)
		}
	}
}

// denseInvL computes L⁻¹ densely for comparison.
func denseInvL(l *sparse.CSC) [][]float64 {
	n := l.Cols
	ld := l.Dense()
	inv := make([][]float64, n)
	for j := range inv {
		inv[j] = make([]float64, n)
	}
	// Solve L x = e_j column by column (forward substitution).
	for j := 0; j < n; j++ {
		x := make([]float64, n)
		x[j] = 1
		for i := j; i < n; i++ {
			s := x[i]
			for k := j; k < i; k++ {
				s -= ld[i][k] * inv[k][j]
			}
			inv[i][j] = s / ld[i][i]
		}
	}
	return inv
}

func TestExactWhenDeltaZeroSmall(t *testing.T) {
	// With δ = 0 and n below the keep-all threshold, Z̃ = L⁻¹ exactly.
	_, f := factorOf(10, 6, 1)
	z := Compute(f.L, 0.0)
	want := denseInvL(f.L)
	got := z.Dense()
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if math.Abs(got[i][j]-want[i][j]) > 1e-10 {
				t.Fatalf("Z̃[%d][%d] = %g, want %g", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestNonnegativityProposition1(t *testing.T) {
	// All entries of Z = L⁻¹ (and its approximation) are nonnegative.
	for seed := int64(0); seed < 5; seed++ {
		_, f := factorOf(30, 20, seed)
		z := Compute(f.L, 0.1)
		for _, v := range z.Val {
			if v < 0 {
				t.Fatalf("negative entry %g in Z̃", v)
			}
		}
	}
}

func TestLowerTriangular(t *testing.T) {
	_, f := factorOf(25, 15, 3)
	z := Compute(f.L, 0.1)
	for j := 0; j < z.N; j++ {
		idx, _ := z.Col(j)
		for _, r := range idx {
			if int(r) < j {
				t.Fatalf("entry above diagonal: row %d col %d", r, j)
			}
		}
	}
}

func TestColumnsSortedByRow(t *testing.T) {
	_, f := factorOf(40, 30, 4)
	z := Compute(f.L, 0.1)
	for j := 0; j < z.N; j++ {
		idx, _ := z.Col(j)
		for k := 1; k < len(idx); k++ {
			if idx[k-1] >= idx[k] {
				t.Fatalf("column %d rows not ascending", j)
			}
		}
	}
}

func TestPruningReducesNNZ(t *testing.T) {
	g := gen.Grid2D(20, 20, 5)
	shift := make([]float64, g.N)
	for i := range shift {
		shift[i] = 0.05
	}
	a := lap.Laplacian(g, shift)
	f, err := chol.New(a, chol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	zTight := Compute(f.L, 0.3)
	zLoose := Compute(f.L, 0.01)
	if zTight.NNZ() >= zLoose.NNZ() {
		t.Errorf("δ=0.3 nnz %d should be < δ=0.01 nnz %d", zTight.NNZ(), zLoose.NNZ())
	}
	// The paper reports nnz(Z̃) ≈ n·log n at δ = 0.1.
	z := Compute(f.L, 0.1)
	n := float64(g.N)
	if float64(z.NNZ()) > 4*n*math.Log2(n) {
		t.Errorf("nnz(Z̃) = %d far above n·log n = %g", z.NNZ(), n*math.Log2(n))
	}
}

func TestApproximationQuality(t *testing.T) {
	// e_pqᵀ L_S⁻¹ e_pq computed with Z̃ should be within ~20%% of exact for
	// δ = 0.1 on a modest mesh (the resistance term of eq. 20).
	g := gen.Grid2D(12, 12, 6)
	n := g.N
	shift := make([]float64, n)
	for i := range shift {
		shift[i] = 0.05
	}
	a := lap.Laplacian(g, shift)
	f, err := chol.New(a, chol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	z := Compute(f.L, 0.1)
	rng := rand.New(rand.NewSource(7))
	acc := make([]float64, n)
	var worst float64
	for trial := 0; trial < 40; trial++ {
		p := rng.Intn(n)
		q := rng.Intn(n)
		if p == q {
			continue
		}
		pp, qp := f.PermutedIndex(p), f.PermutedIndex(q)
		touched := z.ScatterDiff(pp, qp, acc, nil)
		approx := NormSq(acc, touched)
		ClearScatter(acc, touched)
		// Exact: e_pqᵀ A⁻¹ e_pq via the factor.
		e := make([]float64, n)
		e[p] = 1
		e[q] = -1
		x := f.Solve(e)
		exact := x[p] - x[q]
		rel := math.Abs(approx-exact) / exact
		if rel > worst {
			worst = rel
		}
	}
	if worst > 0.35 {
		t.Errorf("worst relative resistance error %g > 0.35", worst)
	}
}

func TestErrorBoundEq19(t *testing.T) {
	// Eq. (19): the column-wise propagation does not amplify errors, since
	// Σ_i |L_ij|/L_jj ≤ 1 for SDD matrices. Verify ‖z̃_j − z_j‖∞ stays
	// bounded by the largest pruning cut, with slack for accumulation.
	_, f := factorOf(40, 30, 8)
	delta := 0.05
	z := Compute(f.L, delta)
	want := denseInvL(f.L)
	got := z.Dense()
	for j := 0; j < z.N; j++ {
		var maxCol float64
		for i := j; i < z.N; i++ {
			if want[i][j] > maxCol {
				maxCol = want[i][j]
			}
		}
		for i := j; i < z.N; i++ {
			if d := math.Abs(got[i][j] - want[i][j]); d > 3*delta*maxCol+1e-12 {
				t.Fatalf("col %d entry %d: |Z̃−Z| = %g exceeds bound %g", j, i, d, 3*delta*maxCol)
			}
		}
	}
}

func TestScatterClearLeavesZero(t *testing.T) {
	_, f := factorOf(20, 10, 9)
	z := Compute(f.L, 0.1)
	acc := make([]float64, 20)
	touched := z.ScatterDiff(3, 11, acc, nil)
	ClearScatter(acc, touched)
	for i, v := range acc {
		if v != 0 {
			t.Fatalf("acc[%d] = %g after clear", i, v)
		}
	}
}

func TestDotDiffMatchesDense(t *testing.T) {
	_, f := factorOf(18, 12, 10)
	z := Compute(f.L, 0.0) // exact on this size
	d := z.Dense()
	acc := make([]float64, 18)
	touched := z.ScatterDiff(2, 9, acc, nil)
	got := z.DotDiff(4, 7, acc)
	var want float64
	for r := 0; r < 18; r++ {
		want += (d[r][4] - d[r][7]) * (d[r][2] - d[r][9])
	}
	ClearScatter(acc, touched)
	if math.Abs(got-want) > 1e-10 {
		t.Errorf("DotDiff = %g, want %g", got, want)
	}
}

func TestNNZScalesQuick(t *testing.T) {
	// Property: pruned Z̃ never exceeds the dense lower-triangle size and
	// always covers the diagonal.
	f := func(seed int64) bool {
		n := 5 + int(seed%41+41)%41
		_, fac := factorOf(n, n, seed)
		z := Compute(fac.L, 0.1)
		if z.NNZ() > n*(n+1)/2 {
			return false
		}
		for j := 0; j < n; j++ {
			idx, _ := z.Col(j)
			if len(idx) == 0 || int(idx[0]) != j {
				return false // diagonal must survive pruning (it is the max early on)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

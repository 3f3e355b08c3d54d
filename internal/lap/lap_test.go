package lap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sparse"
)

func TestLaplacianSmall(t *testing.T) {
	// Triangle with weights 1, 2, 3.
	g := graph.MustNew(3, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3},
	})
	l := Laplacian(g, nil)
	want := [][]float64{{4, -1, -3}, {-1, 3, -2}, {-3, -2, 5}}
	d := l.Dense()
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Errorf("L[%d][%d] = %g, want %g", i, j, d[i][j], want[i][j])
			}
		}
	}
}

func TestLaplacianRowSumsAreShift(t *testing.T) {
	g := gen.RandomConnected(20, 30, 1)
	shift := Shift(g, 1e-3)
	l := Laplacian(g, shift)
	d := l.Dense()
	for i := 0; i < g.N; i++ {
		var s float64
		for j := 0; j < g.N; j++ {
			s += d[i][j]
		}
		if math.Abs(s-shift[i]) > 1e-10 {
			t.Errorf("row %d sums to %g, want shift %g", i, s, shift[i])
		}
	}
}

func TestLaplacianSymmetric(t *testing.T) {
	g := gen.RandomConnected(25, 40, 2)
	if !Laplacian(g, Shift(g, 0)).IsSymmetric(0) {
		t.Error("Laplacian not symmetric")
	}
}

// quadraticForm returns xᵀ L_g x computed edge-wise, Σ w_uv (x_u − x_v)²
// plus the shift contribution when extraDiag is non-nil: the oracle the
// assembled Laplacian is checked against.
func quadraticForm(g *graph.Graph, extraDiag, x []float64) float64 {
	var s float64
	for _, e := range g.Edges {
		d := x[e.U] - x[e.V]
		s += e.W * d * d
	}
	for i, v := range extraDiag {
		s += v * x[i] * x[i]
	}
	return s
}

// matrixForm returns xᵀ L x through the assembled matrix.
func matrixForm(l *sparse.CSC, x []float64) float64 {
	y := make([]float64, len(x))
	l.MulVec(x, y)
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// TestQuadraticFormMatchesMatrix: the assembled Laplacian's quadratic
// form equals the edge-wise sum.
func TestQuadraticFormMatchesMatrix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := gen.RandomConnected(n, n, seed)
		shift := Shift(g, 1e-4)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		xLx := matrixForm(Laplacian(g, shift), x)
		return math.Abs(xLx-quadraticForm(g, shift, x)) < 1e-9*(1+math.Abs(xLx))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuadraticFormNonnegative(t *testing.T) {
	// PSD-ness probe: xᵀLx ≥ 0 for random x on the assembled Laplacian.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		g := gen.RandomConnected(n, 2*n, seed)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return matrixForm(Laplacian(g, nil), x) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConstantVectorInKernel(t *testing.T) {
	g := gen.RandomConnected(12, 18, 3)
	ones := make([]float64, g.N)
	for i := range ones {
		ones[i] = 1
	}
	// Each row of L·1 sums a diagonal against its own off-diagonals, so
	// it vanishes up to the rounding of that sum.
	l := Laplacian(g, nil)
	y := make([]float64, g.N)
	l.MulVec(ones, y)
	for i, v := range y {
		if d := l.At(i, i); math.Abs(v) > 1e-12*d {
			t.Errorf("(L1)[%d] = %g, want 0 (diagonal %g)", i, v, d)
		}
	}
}

func TestShiftScalesWithRel(t *testing.T) {
	g := gen.RandomConnected(10, 15, 4)
	s1 := Shift(g, 1e-6)
	s2 := Shift(g, 1e-3)
	if s2[0] <= s1[0] {
		t.Error("larger rel should give larger shift")
	}
	if math.Abs(s2[0]/s1[0]-1000) > 1e-6*1000 {
		t.Errorf("shift ratio %g, want 1000", s2[0]/s1[0])
	}
	// Default when rel ≤ 0.
	d := Shift(g, 0)
	if d[0] != s1[0] {
		t.Errorf("default shift %g, want %g (rel=1e-6)", d[0], s1[0])
	}
}

func TestLaplacianDiagonalAlwaysPresent(t *testing.T) {
	// Even a vertex with tiny degree keeps a structural diagonal entry.
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	l := Laplacian(g, nil)
	for j := 0; j < 3; j++ {
		found := false
		for k := l.ColPtr[j]; k < l.ColPtr[j+1]; k++ {
			if l.RowIdx[k] == j {
				found = true
			}
		}
		if !found {
			t.Fatalf("diagonal entry (%d,%d) missing from pattern", j, j)
		}
	}
}

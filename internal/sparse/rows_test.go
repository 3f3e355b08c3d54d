package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// symmetricTestMatrix returns a random n×n matrix that is symmetric bit
// for bit, with stored zeros off the diagonal and rows whose terms cancel
// exactly: off-diagonal values are small dyadic rationals and every
// diagonal entry is minus its row's off-diagonal sum, so A·1 is exactly
// zero.
func symmetricTestMatrix(n, pairs int, seed int64) *CSC {
	rng := rand.New(rand.NewSource(seed))
	t := NewTriplet(n, n)
	diag := make([]float64, n)
	for k := 0; k < pairs; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := -float64(rng.Intn(8)) / 4 // 0 stores an explicit zero
		t.Add(i, j, v)
		t.Add(j, i, v)
		diag[i] -= v
		diag[j] -= v
	}
	for i, d := range diag {
		t.Add(i, i, d)
	}
	return t.ToCSC()
}

// splitMid returns the row that halves a's stored entries, as the
// solver splits its products.
func splitMid(a *CSC) int { return sort.SearchInts(a.ColPtr, a.NNZ()/2) }

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d is %v, scatter gives %v", what, i, got[i], want[i])
		}
	}
}

// TestRowSplitProductsMatchScatter holds the row-gather kernels, split
// in two at half the nnz, to MulVec and MulPanel bit for bit on
// symmetric matrices with stored zeros, on vectors with +0 and −0
// entries and on the constant vector, whose products cancel to exact
// zeros.
func TestRowSplitProductsMatchScatter(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		n := 5 + int(seed)*13
		a := symmetricTestMatrix(n, 3*n, seed)
		if !a.IsSymmetric(0) {
			t.Fatal("test matrix is not symmetric")
		}
		mid := splitMid(a)
		rng := rand.New(rand.NewSource(seed))
		for _, s := range []int{0, 1, 3, 8} {
			w := max(s, 1)
			for _, kind := range []string{"random", "ones"} {
				x := make([]float64, n*w)
				for i := range x {
					switch {
					case kind == "ones":
						x[i] = 1
					case i%3 == 0:
						x[i] = 0
					case i%7 == 0:
						x[i] = math.Copysign(0, -1)
					default:
						x[i] = rng.NormFloat64()
					}
				}
				want := make([]float64, n*w)
				got := make([]float64, n*w)
				for i := range got {
					got[i] = math.NaN() // every entry must be written
				}
				what := fmt.Sprintf("seed %d width %d %s", seed, s, kind)
				if s == 0 {
					a.MulVec(x, want)
					a.MulVecRows(x, got, mid, n)
					a.MulVecRows(x, got, 0, mid)
				} else {
					a.MulPanel(x, want, s)
					a.MulPanelRows(x, got, s, mid, n)
					a.MulPanelRows(x, got, s, 0, mid)
				}
				sameFloats(t, what, got, want)
			}
		}
	}
}

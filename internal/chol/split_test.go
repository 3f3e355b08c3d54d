package chol

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/sparse"
)

// starLaplacian is the shifted Laplacian of a star on n vertices with
// its center at vertex 0.
func starLaplacian(n int) *sparse.CSC {
	g := &graph.Graph{N: n}
	for v := 1; v < n; v++ {
		g.Edges = append(g.Edges, graph.Edge{U: 0, V: v, W: 1 + float64(v%7)/8})
	}
	return lap.Laplacian(g, constShift(n))
}

// solveSplit runs the two-core schedule the way the solver does: the
// forward halves, Middle, then the backward halves. concurrent runs each
// pair of halves on two goroutines; otherwise they run inline, in the
// order swap picks.
func solveSplit(sp *Split, x, b []float64, s int, concurrent, swap bool) {
	y := make([]float64, sp.n*s)
	pair := func(half func(part int)) {
		if concurrent {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				half(1)
			}()
			half(0)
			wg.Wait()
			return
		}
		if swap {
			half(1)
			half(0)
			return
		}
		half(0)
		half(1)
	}
	pair(func(part int) { sp.Forward(part, b, y, s) })
	sp.Middle(y, s)
	pair(func(part int) { sp.Backward(part, x, y, s) })
}

// checkSplit asserts that f's schedule covers every column exactly once
// and that split solves of width 1, 3 and 8 match SolveToNoAlloc and
// SolvePanelNoAlloc bit for bit, inline in either order and on two
// goroutines.
func checkSplit(t *testing.T, what string, f *Factor, seed int64) {
	t.Helper()
	sp := f.Split()
	if sp == nil {
		t.Fatalf("%s: no split schedule for a computed factor", what)
	}
	bin1, t0, n := sp.Bins()
	if n != f.N || bin1 < 0 || bin1 > t0 || t0 > n {
		t.Fatalf("%s: bins [0,%d) [%d,%d) T [%d,%d) for n=%d", what, bin1, bin1, t0, t0, n, f.N)
	}
	seen := make([]bool, n)
	for c, j := range sp.perm {
		if j < 0 || int(j) >= n || seen[j] {
			t.Fatalf("%s: relabelled column %d maps to %d, repeated or out of range", what, c, j)
		}
		seen[j] = true
	}
	if got, want := len(sp.rowIdx), f.NNZ(); got != want {
		t.Fatalf("%s: relabelled L holds %d entries, L holds %d", what, got, want)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, s := range []int{1, 3, 8} {
		b := make([]float64, n*s)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := make([]float64, n*s)
		if s == 1 {
			f.SolveToNoAlloc(want, b, make([]float64, n))
		} else {
			f.SolvePanelNoAlloc(want, b, make([]float64, n*s), s)
		}
		for _, mode := range []struct {
			name             string
			concurrent, swap bool
		}{{"inline", false, false}, {"swapped", false, true}, {"concurrent", true, false}} {
			got := make([]float64, n*s)
			solveSplit(sp, got, b, s, mode.concurrent, mode.swap)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: width %d %s: entry %d is %v, sequential %v",
						what, s, mode.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSplitSolveBitIdentical holds the two-core schedule to the
// sequential solves on random connected graphs and on the degenerate
// elimination trees of a path (a single chain) and a star (one root over
// n−1 leaves, or with the center first, one dense column).
func TestSplitSolveBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		a    *sparse.CSC
		perm []int
	}{
		{"path-natural", laplacianPlusEpsPath(300), identity(300)},
		{"path", laplacianPlusEpsPath(300), nil},
		{"star", starLaplacian(200), nil},
		{"star-center-first", starLaplacian(60), identity(60)},
		{"grid", lap.Laplacian(gen.Grid2D(30, 30, 1), constShift(900)), nil},
		{"single", laplacianPlusEpsPath(1), nil},
	}
	for seed := int64(1); seed <= 6; seed++ {
		n := 50 + 70*int(seed)
		cases = append(cases, struct {
			name string
			a    *sparse.CSC
			perm []int
		}{fmt.Sprintf("random-%d", seed), laplacianPlusEps(n, n/2+int(seed)*7, seed), nil})
	}
	for i, c := range cases {
		f, err := New(c.a, Options{Perm: c.perm})
		if err != nil {
			t.Fatal(err)
		}
		checkSplit(t, c.name, f, int64(i))
	}
}

// TestSplitBalancesAMesh checks that the schedule gives both cores work
// on a mesh, where the elimination tree is bushy.
func TestSplitBalancesAMesh(t *testing.T) {
	f, err := New(lap.Laplacian(gen.Tri2D(40, 40, 1), constShift(1600)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp := f.Split()
	bin1, t0, n := sp.Bins()
	cost := func(lo, hi int) int { return int(sp.colPtr[hi] - sp.colPtr[lo]) }
	w0, w1, wt := cost(0, bin1), cost(bin1, t0), cost(t0, n)
	if w0 == 0 || w1 == 0 || 2*wt > w0+w1 || 3*min(w0, w1) < 2*max(w0, w1) {
		t.Fatalf("bins hold %d and %d entries, T %d", w0, w1, wt)
	}
}

// TestSplitAfterRefactor checks the schedule of a refactored factor,
// whose layout may be rebuilt around recomputed rows.
func TestSplitAfterRefactor(t *testing.T) {
	g := gen.RandomConnected(120, 90, 5)
	shift := constShift(g.N)
	a := lap.Laplacian(g, shift)
	base, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := graph.Delta{Set: []graph.Edge{{U: 3, V: 77, W: 2}, {U: 10, V: 11, W: 0.5}}}
	p, err := d.ApplyPatch(g)
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := lap.Patch(a, p.G, shift, lap.Script{Reweighted: p.Reweighted, Added: p.Added, Removed: p.Removed})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := Refactor(base, next, p.Touched)
	if err != nil {
		t.Fatal(err)
	}
	checkSplit(t, "refactor", f, 3)
}

// TestSplitRejectsUnnestedPattern checks that an L whose rows leave the
// elimination tree's paths gets no schedule.
func TestSplitRejectsUnnestedPattern(t *testing.T) {
	// Columns 0 and 1 are leaves under 2 and 3; column 0 also holds row 3,
	// which is not on its path 0 → 2.
	l := &sparse.CSC{Rows: 4, Cols: 4,
		ColPtr: []int{0, 3, 5, 6, 7},
		RowIdx: []int{0, 2, 3, 1, 3, 2, 3},
		Val:    []float64{1, 0.1, 0.1, 1, 0.1, 1, 1},
	}
	f := &Factor{N: 4, L: l, Perm: identity(4)}
	if f.Split() != nil {
		t.Fatal("unnested pattern got a split schedule")
	}
}

// FuzzSplitSolve holds the split schedule to the sequential solves on
// shifted Laplacians of random connected graphs under the computed
// ordering or a random one.
func FuzzSplitSolve(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(10), false)
	f.Add(int64(2), uint16(300), uint8(200), true)
	f.Add(int64(3), uint16(2), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, nb uint16, extra uint8, shuffled bool) {
		n := 1 + int(nb)%600
		a := laplacianPlusEps(n, int(extra), seed)
		var perm []int
		if shuffled {
			perm = rand.New(rand.NewSource(seed)).Perm(n)
		}
		fac, err := New(a, Options{Perm: perm})
		if err != nil {
			t.Fatal(err)
		}
		checkSplit(t, "fuzz", fac, seed)
	})
}

package solver

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/chol"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/sparse"
)

// splitSystem is a system large enough for the split kernels: the
// shifted Laplacian of a 64×64 grid (minSplitN unknowns), the shifted
// Laplacian of a subgraph to precondition it with, so PCG needs a few
// dozen iterations, and eight right-hand sides.
func splitSystem(t *testing.T) (a, pm *sparse.CSC, bs [][]float64) {
	t.Helper()
	g := gen.Grid2D(64, 64, 1)
	if g.N < minSplitN {
		t.Fatalf("test grid has %d unknowns, the split starts at %d", g.N, minSplitN)
	}
	shift := lap.Shift(g, 0)
	a = lap.Laplacian(g, shift)
	p := &graph.Graph{N: g.N}
	for _, e := range g.Edges {
		if e.V-e.U == 1 || e.U%3 == 0 { // rows, and one column edge in three
			p.Edges = append(p.Edges, e)
		}
	}
	pm = lap.Laplacian(p, shift)
	rng := rand.New(rand.NewSource(3))
	bs = make([][]float64, 8)
	for k := range bs {
		bs[k] = make([]float64, g.N)
		for i := range bs[k] {
			bs[k][i] = rng.NormFloat64()
		}
	}
	return a, pm, bs
}

// solveAll runs scalar PCG on the first right-hand side and PCGBlock at
// widths 3 and 8, and returns every solution with its iteration count.
func solveAll(a *sparse.CSC, m Preconditioner, bs [][]float64) ([][]float64, []int) {
	var xs [][]float64
	var its []int
	for _, b := range bs[:1] {
		x := make([]float64, len(b))
		r := PCG(a, b, x, m, Options{Tol: 1e-6})
		xs, its = append(xs, x), append(its, r.Iterations)
	}
	for _, w := range []int{3, 8} {
		bx := make([][]float64, w)
		for k := range bx {
			bx[k] = make([]float64, len(bs[k]))
		}
		for _, r := range PCGBlock(a, bs[:w], bx, m, Options{Tol: 1e-6}) {
			its = append(its, r.Iterations)
		}
		xs = append(xs, bx...)
	}
	return xs, its
}

func sameSolutions(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	for k := range want {
		for i := range want[k] {
			if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
				t.Errorf("%s: solution %d entry %d is %v, sequential %v", what, k, i, got[k][i], want[k][i])
				return
			}
		}
	}
}

// waitGoroutines waits for the goroutine count to fall back to base,
// failing after a second.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-base)
		}
		runtime.Gosched()
	}
	if n := busy.Load(); n != 0 {
		t.Fatalf("%d Ps still claimed", n)
	}
}

// TestSplitPCGBitIdentical checks that PCG and PCGBlock give the same
// bits whether their kernels split over two cores or not: at GOMAXPROCS
// 1 (never a helper), 2 and 3, and at 2 with the second P already
// claimed.
func TestSplitPCGBitIdentical(t *testing.T) {
	a, pm, bs := splitSystem(t)
	f, err := chol.New(pm, chol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := runtime.NumGoroutine()

	runtime.GOMAXPROCS(1)
	want, wantIts := solveAll(a, NewCholPrecond(f), bs)
	if f.Split() == nil {
		t.Fatal("no split schedule for the test factor")
	}
	t.Logf("iterations %v", wantIts)
	if wantIts[0] < 10 {
		t.Fatalf("PCG took %d iterations; the test needs a harder system", wantIts[0])
	}
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		got, its := solveAll(a, NewCholPrecond(f), bs)
		sameSolutions(t, fmt.Sprintf("GOMAXPROCS %d", procs), got, want)
		if fmt.Sprint(its) != fmt.Sprint(wantIts) {
			t.Errorf("GOMAXPROCS %d: iterations %v, sequential %v", procs, its, wantIts)
		}
	}
	runtime.GOMAXPROCS(2)
	busy.Add(1) // another solve holds the second P
	got, _ := solveAll(a, NewCholPrecond(f), bs)
	busy.Add(-1)
	sameSolutions(t, "no free P", got, want)
	waitGoroutines(t, base)
}

// TestConcurrentSolvesShareLazySplit runs scalar and block solves at
// once on one CholPrecond whose factor has not built its split schedule
// yet. At GOMAXPROCS 4 both solves get a helper and race to build the
// schedule; at 2 they contend for one helper; at 1 neither gets one.
// Every solution must match the sequential one bit for bit, and no
// helper may outlive its solve.
func TestConcurrentSolvesShareLazySplit(t *testing.T) {
	a, pm, bs := splitSystem(t)
	f, err := chol.New(pm, chol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	want, _ := solveAll(a, NewCholPrecond(f), bs) // builds no schedule
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		base := runtime.NumGoroutine()
		// A new factor of the same matrix: equal bits, no schedule yet.
		fp, err := chol.New(pm, chol.Options{Perm: f.Perm})
		if err != nil {
			t.Fatal(err)
		}
		m := NewCholPrecond(fp)
		const workers = 2
		got := make([][][]float64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w], _ = solveAll(a, m, bs)
			}()
		}
		wg.Wait()
		for w := range got {
			sameSolutions(t, fmt.Sprintf("GOMAXPROCS %d worker %d", procs, w), got[w], want)
		}
		waitGoroutines(t, base)
	}
}

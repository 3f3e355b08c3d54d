package chol

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/sparse"
)

// constShift is a positive diagonal that keeps every Laplacian SPD, even
// after removals disconnect the graph.
func constShift(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 0.05
	}
	return s
}

// sameFactor fails unless f and want store the same ordering and L bit
// for bit.
func sameFactor(t *testing.T, what string, f, want *Factor) {
	t.Helper()
	switch {
	case !slices.Equal(f.Perm, want.Perm):
		t.Fatalf("%s: permutations differ", what)
	case !slices.Equal(f.L.ColPtr, want.L.ColPtr) || !slices.Equal(f.L.RowIdx, want.L.RowIdx):
		t.Fatalf("%s: L patterns differ (nnz %d, want %d)", what, f.NNZ(), want.NNZ())
	}
	for p, v := range f.L.Val {
		if math.Float64bits(v) != math.Float64bits(want.L.Val[p]) {
			t.Fatalf("%s: L value %d is %v, want %v", what, p, v, want.L.Val[p])
		}
	}
}

// checkRefactor runs Refactor and holds it to its oracle: New under the
// base ordering, or a fresh New when the reorder bound fired (and the
// base-ordering factor really was over the bound).
func checkRefactor(t *testing.T, what string, base *Factor, a *sparse.CSC, changed []int) (*Factor, RefactorStats) {
	t.Helper()
	f, st, err := Refactor(base, a, changed)
	if err != nil {
		t.Fatalf("%s: Refactor: %v", what, err)
	}
	under, err := New(a, Options{Perm: base.Perm})
	if err != nil {
		t.Fatalf("%s: New under base ordering: %v", what, err)
	}
	if st.Reordered {
		if !overBound(under.NNZ(), base.freshNNZ) {
			t.Fatalf("%s: reordered at nnz %d, fresh %d", what, under.NNZ(), base.freshNNZ)
		}
		fresh, err := New(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameFactor(t, what, f, fresh)
		if f.freshNNZ != f.NNZ() {
			t.Fatalf("%s: reordered factor's fresh nnz %d, want its own %d", what, f.freshNNZ, f.NNZ())
		}
		return f, st
	}
	if overBound(under.NNZ(), base.freshNNZ) {
		t.Fatalf("%s: kept the base ordering at nnz %d, fresh %d", what, under.NNZ(), base.freshNNZ)
	}
	sameFactor(t, what, f, under)
	if f.freshNNZ != base.freshNNZ {
		t.Fatalf("%s: fresh nnz %d, want the base's %d", what, f.freshNNZ, base.freshNNZ)
	}
	if st.Rows < 0 || st.Rows > f.N || (changed == nil && st.Rows != f.N) {
		t.Fatalf("%s: %d rows recomputed of %d", what, st.Rows, f.N)
	}
	return f, st
}

// scriptDelta draws a delta of the given kind against g.
func scriptDelta(r *rand.Rand, g *graph.Graph, kind string, size int) graph.Delta {
	var d graph.Delta
	used := map[[2]int]bool{}
	name := func(u, v int) bool {
		k := [2]int{min(u, v), max(u, v)}
		if u == v || used[k] {
			return false
		}
		used[k] = true
		return true
	}
	for i := 0; i < size; i++ {
		op := kind
		if op == "mixed" {
			op = []string{"reweight", "insert", "remove"}[r.Intn(3)]
		}
		switch op {
		case "reweight":
			if e := g.Edges[r.Intn(g.M())]; name(e.U, e.V) {
				d.Set = append(d.Set, graph.Edge{U: e.U, V: e.V, W: e.W * (0.5 + r.Float64())})
			}
		case "remove":
			if e := g.Edges[r.Intn(g.M())]; g.M() > 1 && name(e.U, e.V) {
				d.Remove = append(d.Remove, [2]int{e.U, e.V})
			}
		case "insert":
			if u, v := r.Intn(g.N), r.Intn(g.N); name(u, v) {
				if _, ok := g.EdgeBetween(u, v); !ok {
					d.Set = append(d.Set, graph.Edge{U: u, V: v, W: 0.1 + r.Float64()})
				}
			}
		}
	}
	return d
}

// TestRefactorMatchesNew: on chains of reweight, insert, remove and mixed
// scripts, with the patched Laplacian (stored zeros included) and the
// cold one, Refactor equals New under the base ordering bit for bit, or a
// fresh New exactly when the reorder bound fires.
func TestRefactorMatchesNew(t *testing.T) {
	var reordered, kept int
	for _, tc := range []struct {
		kind        string
		n, extra    int
		size, steps int
		cold        bool
	}{
		{"reweight", 60, 90, 4, 6, false},
		{"reweight", 200, 400, 1, 4, true},
		{"insert", 60, 90, 2, 6, false},
		{"insert", 150, 200, 1, 4, true},
		{"remove", 80, 160, 3, 6, false},
		{"mixed", 120, 240, 6, 8, false},
		{"mixed", 40, 40, 12, 6, true},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed))
			g := gen.RandomConnected(tc.n, tc.extra, seed)
			shift := constShift(g.N)
			a := lap.Laplacian(g, shift)
			f, err := New(a, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < tc.steps; step++ {
				p, err := scriptDelta(r, g, tc.kind, tc.size).ApplyPatch(g)
				if err != nil {
					t.Fatal(err)
				}
				next := lap.Laplacian(p.G, shift)
				if !tc.cold {
					if next, _, err = lap.Patch(a, p.G, shift, lap.Script{
						Reweighted: p.Reweighted, Added: p.Added, Removed: p.Removed,
					}); err != nil {
						t.Fatal(err)
					}
				}
				var st RefactorStats
				f, st = checkRefactor(t, tc.kind, f, next, p.Touched)
				if st.Reordered {
					reordered++
				} else {
					kept++
				}
				g, a = p.G, next
			}
			// Every column changed: the whole factor under the base ordering.
			f, _ = checkRefactor(t, tc.kind+"/all", f, a, nil)
		}
	}
	t.Logf("%d refactors kept the base ordering, %d reordered", kept, reordered)
	if reordered == 0 || kept == 0 {
		t.Fatalf("scripts exercised only one branch: %d reordered, %d kept", reordered, kept)
	}
}

// TestRefactorRecomputesAncestorsOnly: a reweight at one leaf of a long
// path ordered naturally touches the leaf's ancestors only, and an
// unchanged pattern shares the base layout.
func TestRefactorRecomputesAncestorsOnly(t *testing.T) {
	const n = 50
	a := laplacianPlusEpsPath(n)
	base, err := New(a, Options{Perm: identity(n)})
	if err != nil {
		t.Fatal(err)
	}
	// Raise the diagonal at vertex 40: rows 40..49 are its ancestors.
	b := &sparse.CSC{Rows: n, Cols: n, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: slices.Clone(a.Val)}
	for p := b.ColPtr[40]; p < b.ColPtr[41]; p++ {
		if b.RowIdx[p] == 40 {
			b.Val[p] += 1
		}
	}
	f, st := checkRefactor(t, "path", base, b, []int{40})
	if st.Rows != 10 || st.Reordered {
		t.Fatalf("stats %+v, want 10 rows recomputed without reorder", st)
	}
	if &f.L.RowIdx[0] != &base.L.RowIdx[0] {
		t.Fatal("unchanged pattern did not share the base layout")
	}
	if base.L.Val[base.L.ColPtr[40]] == f.L.Val[f.L.ColPtr[40]] {
		t.Fatal("base factor's values changed under it or row 40 was not recomputed")
	}
}

func TestRefactorRejectsMismatch(t *testing.T) {
	a := laplacianPlusEps(20, 10, 3)
	f, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Refactor(f, laplacianPlusEps(21, 10, 3), nil); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, _, err := Refactor(f, a, []int{20}); err == nil {
		t.Fatal("out-of-range changed column accepted")
	}
}

// FuzzRefactor chains up to two decoded scripts (reweight, remove,
// insert) against a small random graph and holds every Refactor to
// checkRefactor's oracle.
func FuzzRefactor(f *testing.F) {
	f.Add(int64(1), uint8(8), []byte{0, 1, 0, 2, 2, 3})
	f.Add(int64(2), uint8(30), []byte{1, 4, 0, 255, 2, 4, 2, 0, 5})
	f.Add(int64(3), uint8(17), []byte{2, 0, 3, 1, 1, 1, 0, 2, 1})
	f.Fuzz(func(t *testing.T, seed int64, nb uint8, ops []byte) {
		if len(ops) > 120 {
			return
		}
		n := 2 + int(nb)%40
		g := gen.RandomConnected(n, int(nb)%50, seed)
		shift := constShift(n)
		a := lap.Laplacian(g, shift)
		fac, err := New(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for step, chunk := range splitScripts(ops) {
			p, err := fuzzDelta(g, chunk).ApplyPatch(g)
			if err != nil {
				return
			}
			next, _, err := lap.Patch(a, p.G, shift, lap.Script{
				Reweighted: p.Reweighted, Added: p.Added, Removed: p.Removed,
			})
			if err != nil {
				t.Fatalf("step %d: Patch: %v", step, err)
			}
			fac, _ = checkRefactor(t, "fuzz", fac, next, p.Touched)
			g, a = p.G, next
		}
	})
}

// splitScripts cuts ops at the first 255 byte into at most two scripts.
func splitScripts(ops []byte) [][]byte {
	if i := slices.Index(ops, 255); i >= 0 {
		return [][]byte{ops[:i], ops[i+1:]}
	}
	return [][]byte{ops}
}

// fuzzDelta decodes ops three bytes at a time: reweight or remove an
// edge of g, or set an arbitrary pair. Each pair is named at most once.
func fuzzDelta(g *graph.Graph, ops []byte) graph.Delta {
	var d graph.Delta
	used := map[[2]int]bool{}
	for i := 0; i+2 < len(ops); i += 3 {
		a, b := int(ops[i+1]), int(ops[i+2])
		u, v := a%g.N, b%g.N
		if kind := ops[i] % 3; kind < 2 && g.M() > 0 {
			e := g.Edges[a%g.M()]
			u, v = e.U, e.V
			if kind == 1 {
				if k := [2]int{u, v}; !used[k] {
					used[k] = true
					d.Remove = append(d.Remove, k)
				}
				continue
			}
		}
		if k := [2]int{min(u, v), max(u, v)}; !used[k] {
			used[k] = true
			d.Set = append(d.Set, graph.Edge{U: u, V: v, W: 0.25 + float64(b)/64})
		}
	}
	return d
}

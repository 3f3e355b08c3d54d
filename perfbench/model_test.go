package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/solver"
	"repro/internal/tree"
)

func TestResidualAgreesWithProgramLaplacian(t *testing.T) {
	g := gen.CircuitGrid(12, 12, 0.08, 3)
	m := newModel(g, 12)
	shift := lap.Shift(g, 0)
	// Summation order may differ in the last bit.
	if got := m.shift; math.Abs(got-shift[0]) > 1e-12*shift[0] {
		t.Fatalf("model shift %v, lap.Shift %v", got, shift[0])
	}
	b := rhs(g.N, 5)
	x := make([]float64, g.N)
	a := lap.Laplacian(g, shift)
	res := solver.PCG(a, b, x, solver.NewJacobi(a), solver.Options{Tol: 1e-10})
	if !res.Converged {
		t.Fatal("reference solve did not converge")
	}
	if r := m.relResidual(b, x); r > 1e-9 {
		t.Fatalf("residual of a converged solution = %g", r)
	}
	// An artifact that missed an edit fails the check by far.
	d := m.reweight(rand.New(rand.NewSource(1)))
	m.apply(d)
	if r := m.relResidual(b, x); r < 1e-4 {
		t.Fatalf("residual against the edited graph = %g, want a clear miss", r)
	}
}

func TestRHSHasZeroMean(t *testing.T) {
	var s float64
	for _, v := range rhs(1000, 7) {
		s += v
	}
	if s > 1e-9 || s < -1e-9 {
		t.Fatalf("sum of rhs = %g", s)
	}
}

func sparsifierOf(g *graph.Graph, idx []int) [][3]float64 {
	out := make([][3]float64, len(idx))
	for i, e := range idx {
		ed := g.Edges[e]
		out[i] = [3]float64{float64(ed.U), float64(ed.V), ed.W}
	}
	return out
}

func TestCheckSparsifier(t *testing.T) {
	g := gen.Grid2D(8, 8, 1)
	m := newModel(g, 8)
	tr, err := tree.MEWST(g)
	if err != nil {
		t.Fatal(err)
	}
	ok := sparsifierOf(g, tr.EdgeIdx)
	if err := m.checkSparsifier(ok); err != nil {
		t.Fatalf("spanning tree rejected: %v", err)
	}
	tedges := make([]graph.Edge, len(tr.EdgeIdx))
	for i, e := range tr.EdgeIdx {
		tedges[i] = g.Edges[e]
	}
	if err := containsTree(tedges, ok); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		edit  func([][3]float64) [][3]float64
		wants string
	}{
		{"missing edge", func(s [][3]float64) [][3]float64 { return s[1:] }, "needs"},
		{"wrong weight", func(s [][3]float64) [][3]float64 { s[0][2] *= 2; return s }, "weight"},
		{"foreign edge", func(s [][3]float64) [][3]float64 { return append(s, [3]float64{0, 63, 1}) }, "not in the graph"},
		{"repeated edge", func(s [][3]float64) [][3]float64 { return append(s, s[0]) }, "repeats"},
		{"disconnected", func([][3]float64) [][3]float64 {
			// Every grid edge except the ones between rows 1 and 2.
			var out [][3]float64
			for _, e := range g.Edges {
				if e.U/8 == 1 && e.V/8 == 2 {
					continue
				}
				out = append(out, [3]float64{float64(e.U), float64(e.V), e.W})
			}
			return out
		}, "components"},
	} {
		bad := tc.edit(append([][3]float64(nil), ok...))
		err := m.checkSparsifier(bad)
		if err == nil || !strings.Contains(err.Error(), tc.wants) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.wants)
		}
	}
	if err := containsTree(tedges, ok[1:]); err == nil {
		t.Error("containsTree accepted a sparsifier missing a tree edge")
	}
}

func TestEditsKeepModelConsistent(t *testing.T) {
	g := gen.CircuitGrid(20, 20, 0.08, 2)
	m := newModel(g, 20)
	rng := rand.New(rand.NewSource(9))
	n := len(m.w)
	rm := m.removeShortcut(rng)
	m.apply(rm)
	add := m.addShortcut(rng)
	m.apply(add)
	if len(m.w) != n {
		t.Fatalf("edge count %d after one removal and one addition, want %d", len(m.w), n)
	}
	if _, ok := m.w[normKey(rm.Remove[0][0], rm.Remove[0][1])]; ok {
		t.Fatal("removed shortcut still in the model")
	}
	for _, s := range m.shortcuts {
		if m.gridPair(s) {
			t.Fatalf("grid edge %v listed as a shortcut", s)
		}
	}
	// The edited model must still be a valid graph for graph.New.
	p, err := graph.Delta{Remove: rm.Remove}.ApplyPatch(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.G.M() != n-1 {
		t.Fatalf("program applies the removal to %d edges, want %d", p.G.M(), n-1)
	}
	if m.graph().M() != n {
		t.Fatal("model graph lost edges")
	}
}

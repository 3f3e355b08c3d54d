package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lap"
)

func TestMaxWeightPicksHeavyEdges(t *testing.T) {
	// Triangle with weights 1, 2, 3: the MaxW tree keeps the 2 and 3 edges.
	g := graph.MustNew(3, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3},
	})
	tr, err := MaxWeight(g)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, e := range tr.EdgeIdx {
		total += g.Edges[e].W
	}
	if total != 5 {
		t.Errorf("tree weight %g, want 5", total)
	}
}

func TestTreeHasNMinus1Edges(t *testing.T) {
	g := gen.RandomConnected(50, 80, 1)
	tr, err := MEWST(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.EdgeIdx) != g.N-1 {
		t.Fatalf("tree has %d edges, want %d", len(tr.EdgeIdx), g.N-1)
	}
	count := 0
	for _, in := range tr.InTree {
		if in {
			count++
		}
	}
	if count != g.N-1 {
		t.Errorf("InTree flags %d edges", count)
	}
}

func TestDisconnectedRejected(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, err := MaxWeight(g); err == nil {
		t.Fatal("expected error for disconnected graph")
	}
}

func TestRootedStructureConsistent(t *testing.T) {
	g := gen.RandomConnected(60, 100, 2)
	tr, err := MEWST(g)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Parent[tr.Root] != -1 {
		t.Error("root has a parent")
	}
	for v := 0; v < g.N; v++ {
		if v == tr.Root {
			continue
		}
		p := tr.Parent[v]
		if p < 0 {
			t.Fatalf("vertex %d unrooted", v)
		}
		if tr.Depth[v] != tr.Depth[p]+1 {
			t.Fatalf("depth[%d] inconsistent", v)
		}
		e := g.Edges[tr.ParentEdge[v]]
		if !((e.U == v && e.V == p) || (e.V == v && e.U == p)) {
			t.Fatalf("ParentEdge[%d] does not connect to parent", v)
		}
		wantRes := tr.RootRes[p] + 1/e.W
		if math.Abs(tr.RootRes[v]-wantRes) > 1e-12 {
			t.Fatalf("RootRes[%d] inconsistent", v)
		}
	}
}

func TestResistanceOnPathGraph(t *testing.T) {
	// Path with weights w_i: R(0, k) = Σ 1/w_i.
	g := graph.MustNew(5, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 4}, {U: 3, V: 4, W: 8},
	})
	tr, err := MaxWeight(g)
	if err != nil {
		t.Fatal(err)
	}
	rs := tr.Resistances([][2]int{{0, 4}, {1, 3}, {2, 2}})
	want := []float64{1 + 0.5 + 0.25 + 0.125, 0.5 + 0.25, 0}
	for i := range want {
		if math.Abs(rs[i]-want[i]) > 1e-12 {
			t.Errorf("R[%d] = %g, want %g", i, rs[i], want[i])
		}
	}
}

func TestResistanceMatchesDenseLaplacian(t *testing.T) {
	// On the tree itself, R_T(p,q) = e_pqᵀ L_T⁺ e_pq. Use a tiny shift and
	// dense solves as the oracle.
	g := gen.RandomConnected(20, 0, 3) // a tree already
	tr, err := MaxWeight(g)
	if err != nil {
		t.Fatal(err)
	}
	shift := make([]float64, g.N)
	for i := range shift {
		shift[i] = 1e-9
	}
	ld := dense.FromRows(lap.Laplacian(g, shift).Dense())
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		p, q := rng.Intn(g.N), rng.Intn(g.N)
		if p == q {
			continue
		}
		e := make([]float64, g.N)
		e[p], e[q] = 1, -1
		x, err := dense.SolveSPD(ld, e)
		if err != nil {
			t.Fatal(err)
		}
		want := x[p] - x[q]
		got := tr.Resistances([][2]int{{p, q}})[0]
		if math.Abs(got-want) > 1e-5*(1+want) {
			t.Errorf("R(%d,%d) = %g, dense %g", p, q, got, want)
		}
	}
}

// pathEdges returns the G-edge indices on the unique tree path p→q, given
// their LCA: from p up to the LCA, then from the LCA down to q.
func pathEdges(t *Tree, p, q, lcaNode int) []int {
	var up []int
	for v := p; v != lcaNode; v = t.Parent[v] {
		up = append(up, t.ParentEdge[v])
	}
	var down []int
	for v := q; v != lcaNode; v = t.Parent[v] {
		down = append(down, t.ParentEdge[v])
	}
	for i, j := 0, len(down)-1; i < j; i, j = i+1, j-1 {
		down[i], down[j] = down[j], down[i]
	}
	return append(up, down...)
}

// TestPathEdgesConnectEndpoints: the parent links and the batched LCAs
// describe real tree paths, and Resistance sums the resistance along
// them.
func TestPathEdgesConnectEndpoints(t *testing.T) {
	g := gen.RandomConnected(40, 60, 5)
	tr, err := MEWST(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		p, q := rng.Intn(g.N), rng.Intn(g.N)
		l := tr.LCAs([][2]int{{p, q}})[0]
		path := pathEdges(tr, p, q, l)
		// Walk the path from p; it must end at q using each edge once.
		cur := p
		for _, e := range path {
			ed := g.Edges[e]
			switch cur {
			case ed.U:
				cur = ed.V
			case ed.V:
				cur = ed.U
			default:
				t.Fatalf("path edge %d does not touch current vertex %d", e, cur)
			}
		}
		if cur != q {
			t.Fatalf("path from %d ends at %d, want %d", p, cur, q)
		}
		// Resistance along the path equals the LCA-based resistance.
		var r float64
		for _, e := range path {
			r += 1 / g.Edges[e].W
		}
		if want := tr.Resistance(p, q, l); math.Abs(r-want) > 1e-12*(1+want) {
			t.Fatalf("path resistance %g ≠ %g", r, want)
		}
	}
}

func TestMEWSTStretchReasonable(t *testing.T) {
	// MEWST should produce total stretch no worse than a few times the
	// max-weight tree on a weighted grid (it is designed to be lower).
	g := gen.Grid2D(25, 25, 7)
	tw, err := MaxWeight(g)
	if err != nil {
		t.Fatal(err)
	}
	te, err := MEWST(g)
	if err != nil {
		t.Fatal(err)
	}
	sw, se := tw.TotalStretch(), te.TotalStretch()
	if se > 3*sw {
		t.Errorf("MEWST stretch %g ≫ MaxWeight stretch %g", se, sw)
	}
}

func TestOffTreeEdgesComplement(t *testing.T) {
	g := gen.RandomConnected(30, 45, 8)
	tr, err := MEWST(g)
	if err != nil {
		t.Fatal(err)
	}
	off := tr.OffTreeEdges()
	if len(off)+len(tr.EdgeIdx) != g.M() {
		t.Fatalf("off-tree %d + tree %d ≠ m %d", len(off), len(tr.EdgeIdx), g.M())
	}
	for _, e := range off {
		if tr.InTree[e] {
			t.Fatalf("edge %d flagged in-tree but listed off-tree", e)
		}
	}
}

func TestTriangleInequalityQuick(t *testing.T) {
	// Tree resistance is a metric: R(a,c) ≤ R(a,b) + R(b,c).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		g := gen.RandomConnected(n, n, seed)
		tr, err := MEWST(g)
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			rs := tr.Resistances([][2]int{{a, c}, {a, b}, {b, c}})
			if rs[0] > rs[1]+rs[2]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

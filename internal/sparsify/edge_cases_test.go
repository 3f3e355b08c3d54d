package sparsify

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/chol"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/spai"
	"repro/internal/tree"
)

func TestSparsifyTrivialGraphs(t *testing.T) {
	// Single edge: the tree is the whole graph; nothing to recover.
	g := graph.MustNew(2, []graph.Edge{{U: 0, V: 1, W: 1}})
	res, err := Sparsify(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EdgeIdx) != 1 || res.Stats.EdgesAdded != 0 {
		t.Errorf("edges=%d added=%d", len(res.EdgeIdx), res.Stats.EdgesAdded)
	}

	// Triangle: one off-tree edge, tiny budget.
	tri := graph.MustNew(3, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
	})
	res, err = Sparsify(tri, Options{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EdgeIdx) < 2 {
		t.Error("triangle sparsifier lost tree edges")
	}
}

func TestSparsifyTreeInputIsIdentity(t *testing.T) {
	// A graph that already is a tree has no off-tree edges; the sparsifier
	// must be the graph itself for every method.
	g := gen.RandomConnected(40, 0, 3)
	for _, m := range []Method{TraceReduction, GRASS, FeGRASS} {
		res, err := Sparsify(g, Options{Method: m, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(res.EdgeIdx) != g.M() {
			t.Errorf("%v: %d edges, want %d", m, len(res.EdgeIdx), g.M())
		}
	}
}

func TestSparsifyCompleteGraph(t *testing.T) {
	// Dense input: still must produce tree + α·n edges and stay connected.
	g := gen.Complete(40)
	res, err := Sparsify(g, Options{Alpha: 0.2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := 39 + 8
	if len(res.EdgeIdx) != want {
		t.Errorf("%d edges, want %d", len(res.EdgeIdx), want)
	}
	if !res.Sparsifier.Connected() {
		t.Error("disconnected")
	}
}

func TestSparsifyHugeAlphaTakesEverything(t *testing.T) {
	g := gen.RandomConnected(30, 60, 4)
	res, err := Sparsify(g, Options{Alpha: 100, Seed: 1, SimilarityHops: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EdgeIdx) != g.M() {
		t.Errorf("α≫1 should recover all edges: %d of %d", len(res.EdgeIdx), g.M())
	}
}

func TestSparsifyExtremeWeightContrast(t *testing.T) {
	// Weights spanning 12 orders of magnitude must not break the scoring
	// (no NaN/Inf scores, factorization stays PD).
	edges := []graph.Edge{}
	n := 50
	for i := 0; i+1 < n; i++ {
		w := 1e-6
		if i%2 == 0 {
			w = 1e6
		}
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: w})
	}
	for i := 0; i+10 < n; i += 5 {
		edges = append(edges, graph.Edge{U: i, V: i + 10, W: 1})
	}
	g := graph.MustNew(n, edges)
	res, err := Sparsify(g, Options{Alpha: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sparsifier.Connected() {
		t.Error("disconnected under extreme contrast")
	}
}

func TestScoresAreFinite(t *testing.T) {
	g := gen.Tri2D(15, 15, 6)
	st := mustTree(t, g)
	o := Options{Workers: 2}.withDefaults()
	scores := mustScore(scoreTreePhase(context.Background(), g, st, st.OffTreeEdges(), o))
	for i, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			t.Fatalf("score[%d] = %g", i, s)
		}
	}
}

func TestGRASSExclusionAblation(t *testing.T) {
	// The hybrid (GRASS metric + corridor exclusion) must be roughly as
	// good as plain GRASS on a mesh — the ablation DESIGN.md calls out.
	// Kept small: the oracle is a dense inverse.
	g := gen.Tri2D(14, 14, 7)
	plain, err := Sparsify(g, Options{Method: GRASS, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := Sparsify(g, Options{Method: GRASS, Seed: 3}.WithGRASSExclusion())
	if err != nil {
		t.Fatal(err)
	}
	shift := tinyShift(g.N)
	trPlain, err := ExactTrace(g, plain.InSub, shift)
	if err != nil {
		t.Fatal(err)
	}
	trHybrid, err := ExactTrace(g, hybrid.InSub, shift)
	if err != nil {
		t.Fatal(err)
	}
	// Allow 15% slack; the hybrid should not be substantially worse.
	if trHybrid > 1.15*trPlain {
		t.Errorf("hybrid trace %g much worse than plain %g", trHybrid, trPlain)
	}
}

func TestWorkersDoNotChangeScores(t *testing.T) {
	g := gen.Tri2D(20, 20, 8)
	st := mustTree(t, g)
	cand := st.OffTreeEdges()
	o1 := Options{Workers: 1}.withDefaults()
	o8 := Options{Workers: 8}.withDefaults()
	same := func(phase string, s1, s8 []float64) {
		t.Helper()
		for i := range s1 {
			if s1[i] != s8[i] {
				t.Fatalf("%s score[%d] differs across worker counts: %g vs %g", phase, i, s1[i], s8[i])
			}
		}
	}
	same("tree",
		mustScore(scoreTreePhase(context.Background(), g, st, cand, o1)),
		mustScore(scoreTreePhase(context.Background(), g, st, cand, o8)))

	// General phase on a densified subgraph: the tree plus every third
	// off-tree edge.
	inSub := append([]bool(nil), st.InTree...)
	for k, e := range cand {
		if k%3 == 0 {
			inSub[e] = true
		}
	}
	f, err := chol.New(lap.Laplacian(subgraphView(g, inSub), lap.Shift(g, o1.ShiftRel)), chol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	z := spai.Compute(f.L, o1.Delta)
	gcand := offSubgraphEdges(g, inSub)
	same("general",
		mustScore(scoreGeneralPhase(context.Background(), g, inSub, f, z, gcand, o1)),
		mustScore(scoreGeneralPhase(context.Background(), g, inSub, f, z, gcand, o8)))
}

// TestSparsifyWorkersBitIdentical: every method whose scores are
// computed per candidate returns the same sparsifier at any worker count.
func TestSparsifyWorkersBitIdentical(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"circuit64": gen.CircuitGrid(64, 64, 0.08, 1),
		"tri60":     gen.Tri2D(60, 60, 2),
	}
	for name, g := range graphs {
		for _, m := range []Method{TraceReduction, GRASS, FeGRASS} {
			var want []int
			for _, w := range []int{1, 2, 3} {
				res, err := Sparsify(g, Options{Method: m, Seed: 1, Workers: w})
				if err != nil {
					t.Fatalf("%s/%v/workers=%d: %v", name, m, w, err)
				}
				if want == nil {
					want = res.EdgeIdx
					continue
				}
				if !slices.Equal(res.EdgeIdx, want) {
					t.Fatalf("%s/%v: EdgeIdx at workers=%d differs from workers=1", name, m, w)
				}
			}
		}
	}
}

func mustTree(t *testing.T, g *graph.Graph) *tree.Tree {
	t.Helper()
	st, err := tree.MEWST(g)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

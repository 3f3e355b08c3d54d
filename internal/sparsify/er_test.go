package sparsify

import (
	"math"
	"testing"

	"repro/internal/gen"
)

func TestERSparsifyInvariants(t *testing.T) {
	g := gen.Grid2D(20, 20, 9)
	res, err := Sparsify(g, Options{Method: ER, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sparsifier.Connected() {
		t.Error("ER sparsifier disconnected")
	}
	if res.Sparsifier.N != g.N {
		t.Errorf("sparsifier spans %d vertices, want %d", res.Sparsifier.N, g.N)
	}
	// Sampling with replacement: at most budget distinct edges beyond the
	// tree, and more than the bare tree unless the pool was degenerate.
	budget := int(0.20 * float64(g.N))
	got := len(res.EdgeIdx)
	if got <= g.N-1 || got > g.N-1+budget {
		t.Errorf("sparsifier has %d edges, want in (n-1, n-1+%d]", got, budget)
	}
	if res.Stats.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1 (single sampling pass)", res.Stats.Rounds)
	}
	if res.Stats.ERSketches == 0 || res.Stats.ERTime == 0 {
		t.Errorf("ER telemetry missing: sketches=%d time=%v", res.Stats.ERSketches, res.Stats.ERTime)
	}
	if res.Reweight == nil {
		t.Fatal("ER result carries no reweight vector")
	}

	// The spanning tree is kept verbatim; sampled edges carry the
	// importance weight w·c/(q·p), clamped to erMaxMultiplier·w.
	for e, in := range res.Tree.InTree {
		if !in {
			continue
		}
		if !res.InSub[e] {
			t.Fatalf("tree edge %d missing from the sparsifier", e)
		}
		if res.Reweight[e] != 0 {
			t.Errorf("tree edge %d reweighted to %g, want original weight", e, res.Reweight[e])
		}
	}
	for e, w := range res.Reweight {
		if w == 0 {
			continue
		}
		if !res.InSub[e] {
			t.Errorf("edge %d has reweight %g but is not in the sparsifier", e, w)
		}
		orig := g.Edges[e].W
		if w <= 0 || math.IsNaN(w) || w > orig*erMaxMultiplier*(1+1e-12) {
			t.Errorf("edge %d reweight %g outside (0, %g·w]", e, w, erMaxMultiplier)
		}
	}

	// The materialized sparsifier graph must reflect the overrides: total
	// weight equals Σ tree + Σ reweighted.
	want := 0.0
	for _, e := range res.EdgeIdx {
		if w := res.Reweight[e]; w > 0 {
			want += w
		} else {
			want += g.Edges[e].W
		}
	}
	have := 0.0
	for _, ed := range res.Sparsifier.Edges {
		have += ed.W
	}
	if math.Abs(want-have) > 1e-9*want {
		t.Errorf("sparsifier total weight %g, want %g", have, want)
	}
}

func TestERDeterministicForFixedSeed(t *testing.T) {
	g := gen.Tri2D(14, 14, 4)
	a, err := Sparsify(g, Options{Method: ER, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sparsify(g, Options{Method: ER, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.EdgeIdx) != len(b.EdgeIdx) {
		t.Fatalf("edge counts differ: %d vs %d", len(a.EdgeIdx), len(b.EdgeIdx))
	}
	for i := range a.EdgeIdx {
		if a.EdgeIdx[i] != b.EdgeIdx[i] {
			t.Fatalf("edge %d differs: %d vs %d", i, a.EdgeIdx[i], b.EdgeIdx[i])
		}
	}
	for e := range a.Reweight {
		if a.Reweight[e] != b.Reweight[e] {
			t.Fatalf("reweight %d differs: %g vs %g", e, a.Reweight[e], b.Reweight[e])
		}
	}
}

func TestParseMethod(t *testing.T) {
	cases := map[string]Method{
		"trace":                TraceReduction,
		"trace-reduction":      TraceReduction,
		"grass":                GRASS,
		"fegrass":              FeGRASS,
		"er":                   ER,
		"effective-resistance": ER,
	}
	for s, want := range cases {
		got, err := ParseMethod(s)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMethod("banana"); err == nil {
		t.Error("ParseMethod accepted an unknown method")
	}
}

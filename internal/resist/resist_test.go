package resist_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/resist"
)

func path(n int) *graph.Graph {
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: i, V: i + 1, W: 1 + 0.5*float64(i%3)}
	}
	return graph.MustNew(n, edges)
}

func cycle(n int) *graph.Graph {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{U: i, V: (i + 1) % n, W: 1 + 0.25*float64(i%4)}
	}
	return graph.MustNew(n, edges)
}

func complete(n int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: u, V: v, W: 1 + 0.1*float64((u+v)%5)})
		}
	}
	return graph.MustNew(n, edges)
}

// threeCommunities mirrors the shard tests' fixture: three dense grid
// communities joined by a few weak bridges.
func threeCommunities(side int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	n := 0
	offsets := make([]int, 3)
	for c := 0; c < 3; c++ {
		offsets[c] = n
		comm := gen.Grid2D(side, side, seed+int64(c))
		for _, e := range comm.Edges {
			edges = append(edges, graph.Edge{U: e.U + n, V: e.V + n, W: e.W})
		}
		n += comm.N
	}
	sz := side * side
	for c := 0; c < 3; c++ {
		a, b := offsets[c], offsets[(c+1)%3]
		for i := 0; i < 3; i++ {
			edges = append(edges, graph.Edge{
				U: a + rng.Intn(sz), V: b + rng.Intn(sz), W: 0.05 + 0.1*rng.Float64(),
			})
		}
	}
	return graph.MustNew(n, edges)
}

// TestSketchWithinEpsilonOfExact is the estimator's core contract: on
// graphs small enough for the dense reference, every edge's sketched
// resistance lands within (1±0.5) of exact at a generous sketch count.
func TestSketchWithinEpsilonOfExact(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", path(32)},
		{"cycle", cycle(32)},
		{"complete8", complete(8)},
		{"communities", threeCommunities(6, 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exact, err := resist.Exact(tc.g, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := resist.Estimate(context.Background(), tc.g, resist.Options{
				Sketches: 320, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Sketches != 320 {
				t.Fatalf("Sketches = %d, want 320", res.Sketches)
			}
			worst := 0.0
			for e := range exact {
				if exact[e] <= 0 {
					t.Fatalf("edge %d: exact resistance %g not positive", e, exact[e])
				}
				rel := math.Abs(res.R[e]-exact[e]) / exact[e]
				if rel > worst {
					worst = rel
				}
				if rel > 0.5 {
					t.Errorf("edge %d: sketch %g vs exact %g (rel dev %.3f > 0.5)",
						e, res.R[e], exact[e], rel)
				}
			}
			t.Logf("%s: %d edges, worst relative deviation %.3f", tc.name, len(exact), worst)
		})
	}
}

// TestSeedDeterminism: the estimate is a pure function of (Seed,
// Sketches, Workers) — same inputs bit-identical, different seed
// actually different.
func TestSeedDeterminism(t *testing.T) {
	g := threeCommunities(5, 9)
	opts := resist.Options{Sketches: 24, Seed: 21, Workers: 4}
	a, err := resist.Estimate(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := resist.Estimate(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for e := range a.R {
		if a.R[e] != b.R[e] {
			t.Fatalf("edge %d: same seed gave %g then %g", e, a.R[e], b.R[e])
		}
	}
	opts.Seed = 22
	c, err := resist.Estimate(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for e := range a.R {
		if a.R[e] != c.R[e] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical estimates")
	}
}

// TestAutoSketchCount: zero options derive a clamped sketch count and
// still produce finite resistances.
func TestAutoSketchCount(t *testing.T) {
	g := cycle(16)
	res, err := resist.Estimate(context.Background(), g, resist.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sketches < 8 {
		t.Errorf("auto sketch count %d below the minimum clamp", res.Sketches)
	}
	for e, r := range res.R {
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			t.Fatalf("edge %d: degenerate resistance %g", e, r)
		}
	}
}

// TestCancellation: a canceled context aborts before any work, and a
// deadline expiring mid-estimation surfaces as a wrapped context error
// instead of running every remaining sketch for nobody.
func TestCancellation(t *testing.T) {
	g := gen.Grid2D(80, 80, 2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := resist.Estimate(ctx, g, resist.Options{Sketches: 16}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled context: err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err := resist.Estimate(ctx, g, resist.Options{Sketches: 512})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-sketch deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestExactGuards: the dense reference refuses graphs it cannot afford.
func TestExactGuards(t *testing.T) {
	if _, err := resist.Exact(path(4097), 0); err == nil {
		t.Error("Exact accepted a graph above its vertex limit")
	}
	if _, err := resist.Exact(nil, 0); err == nil {
		t.Error("Exact accepted a nil graph")
	}
}

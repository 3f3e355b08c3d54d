package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestStreamRefactorOver100Pushes: a stream session absorbs 100 pushes
// (window reweights, shortcut insertions and removals) on a sharded
// circuit grid. After every rebuild the served monolithic factor holds
// at most 9/8 of the nnz of its last fresh ordering, a reorder resets
// that reference, and a refactor under the kept ordering recomputes only
// part of L (no row when the sparsifier did not change). At the end, PCG
// needs within ±1 iteration of what a cold build of the final graph's
// pencil needs.
func TestStreamRefactorOver100Pushes(t *testing.T) {
	ctx := context.Background()
	const side = 48
	g := gen.CircuitGrid(side, side, 0.08, 1)
	opts := Options{ShardThreshold: 600}
	e := New(opts)
	base, _, err := e.Sparsify(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Handle.Sharded() {
		t.Fatal("base build below shard threshold")
	}
	s, err := e.StreamOpen(base.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(5))
	edit := func(step int, cur *graph.Graph) graph.Delta {
		switch step % 4 {
		case 1: // drop a non-grid edge, which keeps the graph connected
			for {
				e := cur.Edges[rng.Intn(cur.M())]
				if d := e.V - e.U; d != 1 && d != side {
					return graph.Delta{Remove: [][2]int{{e.U, e.V}}}
				}
			}
		case 3: // add a short shortcut
			for {
				u := rng.Intn(cur.N)
				v := u + side*(1+rng.Intn(2)) + rng.Intn(3) - 1
				if _, ok := cur.EdgeBetween(u, v); v < cur.N && !ok {
					return graph.Delta{Set: []graph.Edge{{U: u, V: v, W: 0.05 + 0.1*rng.Float64()}}}
				}
			}
		}
		x0, y0 := rng.Intn(side-8), rng.Intn(side-8)
		var d graph.Delta
		for _, e := range cur.Edges {
			if ux, uy, vx, vy := e.U%side, e.U/side, e.V%side, e.V/side; ux >= x0 && vx >= x0 && ux < x0+8 && vx < x0+8 &&
				uy >= y0 && vy >= y0 && uy < y0+8 && vy < y0+8 {
				d.Set = append(d.Set, graph.Edge{U: e.U, V: e.V, W: e.W * (0.5 + 1.5*rng.Float64())})
			}
		}
		return d
	}

	cur := g
	art := base
	fresh := base.Handle.Pencil().Factor().NNZ() // nnz at the last fresh ordering
	var reorders, refactors int
	for step := 0; step < 100; step++ {
		d := edit(step, cur)
		if cur, err = d.Apply(cur); err != nil {
			t.Fatalf("step %d: reference apply: %v", step, err)
		}
		gen, err := s.Push(d)
		if err != nil {
			t.Fatalf("step %d: push: %v", step, err)
		}
		if art, err = s.Wait(ctx, gen); err != nil {
			t.Fatalf("step %d: wait: %v", step, err)
		}
		last := s.Stats().Last
		if last.Cached {
			t.Fatalf("step %d: a random edit returned to a seen graph", step)
		}
		f := art.Handle.Pencil().Factor()
		if f == nil {
			t.Fatalf("step %d: served artifact has no monolithic factor", step)
		}
		switch up := art.Handle.UpdateStats(); {
		case up.Reordered != last.Reordered || up.RefactorRows != last.RefactorRows:
			t.Fatalf("step %d: stream info %+v disagrees with update stats %+v", step, last, up)
		case up.Reordered:
			reorders++
			fresh = f.NNZ()
			if up.RefactorRows != f.N {
				t.Fatalf("step %d: reordered factor computed %d of %d rows", step, up.RefactorRows, f.N)
			}
		default:
			refactors++
			// An edit that leaves the sparsifier alone recomputes no row.
			if up.RefactorRows < 0 || (up.LPPatched && !up.Compacted && up.RefactorRows >= f.N) {
				t.Fatalf("step %d: refactor recomputed %d of %d rows (%+v)", step, up.RefactorRows, f.N, up)
			}
		}
		if 8*f.NNZ() > 9*fresh {
			t.Fatalf("step %d: factor nnz %d over 9/8 of the last fresh ordering's %d", step, f.NNZ(), fresh)
		}
	}
	t.Logf("%d refactors under a kept ordering, %d reorders", refactors, reorders)
	if refactors == 0 {
		t.Fatal("no rebuild kept its base ordering")
	}
	if got := e.Stats().PrecondReorders; got != int64(reorders) {
		t.Fatalf("precond_reorders = %d, want %d", got, reorders)
	}

	// The cold reference builds the final graph's pencil from scratch
	// around the streamed sparsifier: fresh assembly, fresh shift, fresh
	// ordering. A full cold build also reruns Algorithm 2 on every
	// cluster and so picks a different sparsifier, whose count is logged.
	cfg := art.Handle.Config()
	cfg.Prebuilt = art.Handle.SparsifierGraph()
	cold, err := core.NewSparsifier(ctx, cur, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := New(opts).Sparsify(ctx, cur)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, cur.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	iters := func(h *core.Sparsifier) int {
		t.Helper()
		sol, err := h.Solve(ctx, b)
		if err != nil || !sol.Converged {
			t.Fatalf("solve: %+v %v", sol, err)
		}
		return sol.Iterations
	}
	streamed, fresh := iters(art.Handle), iters(cold)
	t.Logf("PCG iterations: streamed %d, cold pencil %d, full cold build %d", streamed, fresh, iters(full.Handle))
	if d := streamed - fresh; d < -1 || d > 1 {
		t.Fatalf("PCG iterations: streamed %d, cold build of the final graph %d", streamed, fresh)
	}
}

package engine

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func streamFixture(t *testing.T, opts Options) (*Engine, *Artifact, *graph.Graph) {
	t.Helper()
	g := gen.Grid2D(40, 40, 1)
	if opts.ShardThreshold == 0 {
		opts.ShardThreshold = 400
	}
	e := New(opts)
	base, _, err := e.Sparsify(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Handle.Sharded() {
		t.Fatal("base build below shard threshold")
	}
	return e, base, g
}

// TestStreamBasic: a session opened from a resident base applies pushed
// deltas through the incremental fast path, serves the updated artifact,
// and lands in the stream counters.
func TestStreamBasic(t *testing.T) {
	ctx := context.Background()
	e, base, g := streamFixture(t, Options{})

	s, err := e.StreamOpen(base.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := e.StreamGet(s.ID()); !ok || got != s {
		t.Fatal("StreamGet does not return the open session")
	}

	gen1, err := s.Push(graph.Delta{Set: []graph.Edge{{U: 0, V: 1, W: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	art, err := s.Wait(ctx, gen1)
	if err != nil {
		t.Fatal(err)
	}
	if art.Key == base.Key {
		t.Fatal("updated artifact kept the base key")
	}
	st := art.Handle.ShardStats()
	if st == nil || !st.Incremental || !st.StitchLocalized {
		t.Fatalf("stream update missed the localized fast path: %+v", st)
	}
	if up := art.Handle.UpdateStats(); up == nil || !up.LGPatched || !up.LPPatched {
		t.Fatalf("stream update did not patch the pencil: %+v", up)
	}

	// The updated graph is served under its own key.
	newG, err := graph.Delta{Set: []graph.Edge{{U: 0, V: 1, W: 5}}}.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	again, hit, err := e.Sparsify(ctx, newG)
	if err != nil || !hit || again != art {
		t.Fatalf("sparsify(streamed graph): hit=%v same=%v err=%v", hit, again == art, err)
	}

	ss := s.Stats()
	if ss.Pushes != 1 || ss.Updates != 1 || ss.PendingPushes != 0 {
		t.Fatalf("session stats: %+v", ss)
	}
	if ss.CurrentKey != art.Key || ss.Last.Key != art.Key {
		t.Fatalf("session keys: current=%q last=%q want %q", ss.CurrentKey, ss.Last.Key, art.Key)
	}
	if ss.Last.ClustersReused == 0 || !ss.Last.StitchLocalized {
		t.Fatalf("last-update reuse report: %+v", ss.Last)
	}

	es := e.Stats()
	if es.StreamSessions != 1 || es.StreamUpdates != 1 {
		t.Fatalf("engine stream stats: sessions=%d updates=%d", es.StreamSessions, es.StreamUpdates)
	}
	if es.StreamP50US <= 0 {
		t.Fatalf("stream p50 = %g, want > 0 after an update", es.StreamP50US)
	}
}

// TestStreamCoalesce: pushes accepted while a rebuild is owed merge into
// one composite delta — remove-then-set across pushes resurrects the
// edge at the final weight, and a single rebuild absorbs all of them.
func TestStreamCoalesce(t *testing.T) {
	ctx := context.Background()
	e, base, _ := streamFixture(t, Options{})
	s, err := e.StreamOpen(base.Key)
	if err != nil {
		t.Fatal(err)
	}

	// Hold the drain by hand so the merge is deterministic.
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	if _, err := s.Push(graph.Delta{Remove: [][2]int{{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(graph.Delta{Set: []graph.Edge{{U: 0, V: 1, W: 2.5}}}); err != nil {
		t.Fatal(err)
	}
	gen, err := s.Push(graph.Delta{Set: []graph.Edge{{U: 5, V: 6, W: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if ss := s.Stats(); ss.Coalesced != 3 || ss.PendingPushes != 3 {
		t.Fatalf("coalesce accounting before drain: %+v", ss)
	}

	go s.drain() // release the held drain
	art, err := s.Wait(ctx, gen)
	if err != nil {
		t.Fatal(err)
	}
	got := art.Handle.BaseGraph()
	if i, ok := got.EdgeBetween(0, 1); !ok || got.Edges[i].W != 2.5 {
		t.Fatalf("edge (0,1) ok=%v — want resurrected at 2.5", ok)
	}
	if i, ok := got.EdgeBetween(5, 6); !ok || got.Edges[i].W != 3 {
		t.Fatalf("edge (5,6) ok=%v — want 3", ok)
	}
	ss := s.Stats()
	if ss.Updates != 1 {
		t.Fatalf("updates = %d, want 1 rebuild absorbing 3 pushes", ss.Updates)
	}
	// 3 edits: the resurrection composes as remove(0,1) + set(0,1) so the
	// weight replaces rather than accumulates, plus the set(5,6).
	if ss.Last.PushesMerged != 3 || ss.Last.Edits != 3 {
		t.Fatalf("last update: merged=%d edits=%d, want 3 and 3", ss.Last.PushesMerged, ss.Last.Edits)
	}
}

// TestStreamBackpressure: the staleness bound (pending pushes) and queue
// depth (pending edits) both refuse pushes with ErrStreamBackpressure.
func TestStreamBackpressure(t *testing.T) {
	e, base, _ := streamFixture(t, Options{StreamStaleness: 2, StreamQueueDepth: 3})
	s, err := e.StreamOpen(base.Key)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.draining = true // hold rebuilds so pending work accumulates
	s.mu.Unlock()

	if _, err := s.Push(graph.Delta{Set: []graph.Edge{{U: 0, V: 1, W: 2}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(graph.Delta{Set: []graph.Edge{{U: 1, V: 2, W: 2}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(graph.Delta{Set: []graph.Edge{{U: 2, V: 3, W: 2}}}); !errors.Is(err, ErrStreamBackpressure) {
		t.Fatalf("staleness bound: err = %v, want ErrStreamBackpressure", err)
	}
	if ss := s.Stats(); ss.Backpressure != 1 {
		t.Fatalf("backpressure counter = %d, want 1", ss.Backpressure)
	}
	if e.Stats().StreamBackpressure != 1 {
		t.Fatal("engine backpressure counter not incremented")
	}

	// Queue depth: a fresh session with 2 pending edits refuses a 2-edit push.
	s2, err := e.StreamOpen(base.Key)
	if err != nil {
		t.Fatal(err)
	}
	s2.mu.Lock()
	s2.draining = true
	s2.mu.Unlock()
	if _, err := s2.Push(graph.Delta{Set: []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 2}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Push(graph.Delta{Set: []graph.Edge{{U: 2, V: 3, W: 2}, {U: 3, V: 4, W: 2}}}); !errors.Is(err, ErrStreamBackpressure) {
		t.Fatalf("queue depth: err = %v, want ErrStreamBackpressure", err)
	}
}

// TestStreamValidation: pushes are validated against current state plus
// pending edits, and a bad delta rejects atomically without corrupting
// the pending merge.
func TestStreamValidation(t *testing.T) {
	ctx := context.Background()
	e, base, _ := streamFixture(t, Options{})
	s, err := e.StreamOpen(base.Key)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	cases := []graph.Delta{
		{Set: []graph.Edge{{U: 0, V: 0, W: 1}}},       // self-loop
		{Set: []graph.Edge{{U: 0, V: 1 << 20, W: 1}}}, // out of range
		{Set: []graph.Edge{{U: 0, V: 1, W: -1}}},      // non-positive weight
		{Remove: [][2]int{{0, 99}}},                   // absent edge
	}
	for i, d := range cases {
		if _, err := s.Push(d); err == nil {
			t.Fatalf("case %d: bad delta accepted", i)
		}
	}

	// Removing a pending (not-yet-applied) addition is legal and cancels it.
	if _, err := s.Push(graph.Delta{Set: []graph.Edge{{U: 0, V: 99, W: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(graph.Delta{Remove: [][2]int{{0, 99}}}); err != nil {
		t.Fatalf("removing a pending addition: %v", err)
	}
	// Removing it again must fail: it no longer exists in the merged view.
	if _, err := s.Push(graph.Delta{Remove: [][2]int{{0, 99}}}); err == nil {
		t.Fatal("double-remove of a pending addition accepted")
	}

	gen, err := s.Push(graph.Delta{Set: []graph.Edge{{U: 0, V: 1, W: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	go s.drain()
	art, err := s.Wait(ctx, gen)
	if err != nil {
		t.Fatal(err)
	}
	got := art.Handle.BaseGraph()
	if _, ok := got.EdgeBetween(0, 99); ok {
		t.Fatal("cancelled addition reached the graph")
	}
	if i, ok := got.EdgeBetween(0, 1); !ok || got.Edges[i].W != 4 {
		t.Fatalf("edge (0,1) weight != 4")
	}
}

// TestStreamCloseAndLimit: closed sessions refuse pushes and leave the
// registry; the session cap and unknown base keys reject opens.
func TestStreamCloseAndLimit(t *testing.T) {
	e, base, _ := streamFixture(t, Options{StreamMaxSessions: 1})
	s, err := e.StreamOpen(base.Key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.StreamOpen(base.Key); !errors.Is(err, ErrStreamLimit) {
		t.Fatalf("second open: err = %v, want ErrStreamLimit", err)
	}
	s.Close()
	if _, err := s.Push(graph.Delta{Set: []graph.Edge{{U: 0, V: 1, W: 2}}}); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("push after close: err = %v, want ErrStreamClosed", err)
	}
	if _, ok := e.StreamGet(s.ID()); ok {
		t.Fatal("closed session still registered")
	}
	if e.Stats().StreamSessions != 0 {
		t.Fatal("closed session still counted")
	}
	// The slot freed by Close is reusable.
	if _, err := e.StreamOpen(base.Key); err != nil {
		t.Fatalf("open after close: %v", err)
	}
	if _, err := e.StreamOpen("g9-9-0000000000000000"); !errors.Is(err, ErrStreamLimit) && !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("open with bogus key: %v", err)
	}

	ed := New(Options{StreamMaxSessions: -1})
	if _, err := ed.StreamOpen("anything"); !errors.Is(err, ErrStreamLimit) {
		t.Fatalf("disabled streaming: err = %v, want ErrStreamLimit", err)
	}
}

// TestStreamChained: a chain of waited pushes tracks a reference graph
// exactly, and every rebuild takes the localized patched path.
func TestStreamChained(t *testing.T) {
	ctx := context.Background()
	e, base, g := streamFixture(t, Options{})
	s, err := e.StreamOpen(base.Key)
	if err != nil {
		t.Fatal(err)
	}

	chain := []graph.Delta{
		{Set: []graph.Edge{{U: 0, V: 1, W: 9}}},
		{Set: []graph.Edge{{U: 0, V: 41, W: 0.25}}},
		{Remove: [][2]int{{0, 41}}},
		{Set: []graph.Edge{{U: 0, V: 41, W: 0.5}}},
		{Set: []graph.Edge{{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 0.7}}},
	}
	want := g
	var art *Artifact
	for step, d := range chain {
		want, err = d.Apply(want)
		if err != nil {
			t.Fatalf("step %d: reference apply: %v", step, err)
		}
		gen, err := s.Push(d)
		if err != nil {
			t.Fatalf("step %d: push: %v", step, err)
		}
		art, err = s.Wait(ctx, gen)
		if err != nil {
			t.Fatalf("step %d: wait: %v", step, err)
		}
		got := art.Handle.BaseGraph()
		if got.M() != want.M() {
			t.Fatalf("step %d: %d edges, want %d", step, got.M(), want.M())
		}
		for _, ed := range want.Edges {
			if i, ok := got.EdgeBetween(ed.U, ed.V); !ok || got.Edges[i].W != ed.W {
				t.Fatalf("step %d: edge (%d,%d) want weight %g", step, ed.U, ed.V, ed.W)
			}
		}
		// Step 2 removes step 1's addition, returning to step 0's exact
		// topology — a whole-graph cache hit instead of a rebuild.
		ss := s.Stats()
		if step == 2 {
			if !ss.Last.Cached {
				t.Fatalf("step %d: returning to a seen topology should be a cache hit: %+v", step, ss.Last)
			}
		} else if ss.Last.Cached || !ss.Last.StitchLocalized || !ss.Last.LGPatched || !ss.Last.LPPatched {
			t.Fatalf("step %d: fast path incomplete: %+v", step, ss.Last)
		}
	}
	if ss := s.Stats(); ss.Updates < int64(len(chain)) && ss.Coalesced == 0 {
		t.Fatalf("accounting: %d updates, %d coalesced for %d pushes", ss.Updates, ss.Coalesced, ss.Pushes)
	}
}

// TestDeltaWeightAndRemovalValidation: Engine.Update and Stream.Push both
// refuse NaN and ±Inf weights, and Push refuses a delta that removes one
// edge twice (in either endpoint order), as graph.Delta.ApplyPatch does.
// Every refused push leaves the session's pending state unchanged.
func TestDeltaWeightAndRemovalValidation(t *testing.T) {
	ctx := context.Background()
	e, base, _ := streamFixture(t, Options{})
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, w := range bad {
		if _, _, err := e.Update(ctx, base.Key, graph.Delta{Set: []graph.Edge{{U: 0, V: 1, W: w}}}); err == nil {
			t.Errorf("Engine.Update accepted weight %g", w)
		}
	}

	s, err := e.StreamOpen(base.Key)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	for _, w := range bad {
		if _, err := s.Push(graph.Delta{Set: []graph.Edge{{U: 0, V: 1, W: w}}}); !errors.Is(err, ErrBadDelta) {
			t.Errorf("Push of weight %g: err = %v, want ErrBadDelta", w, err)
		}
	}
	if _, err := s.Push(graph.Delta{Remove: [][2]int{{0, 1}, {1, 0}}}); !errors.Is(err, ErrBadDelta) {
		t.Errorf("Push removing (0,1) twice: err = %v, want ErrBadDelta", err)
	}
	s.mu.Lock()
	pending := len(s.setW) + len(s.removes)
	s.mu.Unlock()
	if pending != 0 {
		t.Fatalf("refused pushes left %d pending edits", pending)
	}
}

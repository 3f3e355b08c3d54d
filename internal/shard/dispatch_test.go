package shard_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/sparsify"
)

// scrambleDispatcher is an in-process Dispatcher whose earlier requests
// straggle, so results land out of request order, and whose last request
// (by index) fails when fail is set.
type scrambleDispatcher struct {
	k    int
	fail error

	mu         sync.Mutex
	dispatched int
}

func (s *scrambleDispatcher) Dispatch(ctx context.Context, req *shard.ClusterRequest) (*shard.ClusterResult, error) {
	s.mu.Lock()
	s.dispatched++
	s.mu.Unlock()
	time.Sleep(time.Duration(s.k-req.Index) * 2 * time.Millisecond)
	if s.fail != nil && req.Index == s.k-1 {
		return nil, s.fail
	}
	return shard.BuildCluster(ctx, req)
}

// TestStreamedRunPropagatesErrors: a cluster whose dispatch fails while
// others are still in flight must fail the build once the pool drains —
// not hang, not half-stitch — and an out-of-order dispatcher that does
// not fail must reproduce the in-process build exactly.
func TestStreamedRunPropagatesErrors(t *testing.T) {
	g := gen.Grid2D(32, 32, 5)
	o := shard.Options{Shards: 3, Sparsify: sparsify.Options{Seed: 9, Workers: 4}}
	plan, err := shard.NewPlan(context.Background(), g, o)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("worker exploded")
	fo := o
	fo.Dispatcher = &scrambleDispatcher{k: plan.K, fail: boom}
	if _, err := shard.Run(context.Background(), g, plan, fo); !errors.Is(err, boom) {
		t.Fatalf("dispatch failure surfaced as %v, want the dispatch error", err)
	}

	local, err := shard.Run(context.Background(), g, plan, o)
	if err != nil {
		t.Fatal(err)
	}
	sd := &scrambleDispatcher{k: plan.K}
	so := o
	so.Dispatcher = sd
	scrambled, err := shard.Run(context.Background(), g, plan, so)
	if err != nil {
		t.Fatal(err)
	}
	if sd.dispatched == 0 {
		t.Fatal("no cluster went through the dispatcher")
	}
	if len(local.EdgeIdx) != len(scrambled.EdgeIdx) {
		t.Fatalf("builds disagree on size: %d vs %d", len(local.EdgeIdx), len(scrambled.EdgeIdx))
	}
	for i := range local.EdgeIdx {
		if local.EdgeIdx[i] != scrambled.EdgeIdx[i] {
			t.Fatalf("builds disagree at edge %d: %d vs %d", i, local.EdgeIdx[i], scrambled.EdgeIdx[i])
		}
	}
}

// stallDispatcher holds every cluster build until its context ends, and
// counts the builds that started.
type stallDispatcher struct{ started atomic.Int64 }

func (s *stallDispatcher) Dispatch(ctx context.Context, req *shard.ClusterRequest) (*shard.ClusterResult, error) {
	s.started.Add(1)
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestRunCancelMidBuild cancels Run while two cluster builds are in
// flight: Run must return the cancellation promptly (not a hang, not a
// half-stitched result), and none of its goroutines may outlive it.
func TestRunCancelMidBuild(t *testing.T) {
	g := gen.Grid2D(32, 32, 2)
	sd := &stallDispatcher{}
	opts := shard.Options{Shards: 8, Dispatcher: sd, Sparsify: sparsify.Options{Seed: 3, Workers: 2}}
	plan, err := shard.NewPlan(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := shard.Run(ctx, g, plan, opts)
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for sd.started.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no two cluster builds started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}

	deadline = time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after canceled build: %d before, %d after", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// recordDispatcher builds every cluster in-process and records the
// per-cluster scoring worker count Run handed it.
type recordDispatcher struct {
	mu      sync.Mutex
	workers []int
}

func (r *recordDispatcher) Dispatch(ctx context.Context, req *shard.ClusterRequest) (*shard.ClusterResult, error) {
	r.mu.Lock()
	r.workers = append(r.workers, req.Opts.Workers)
	r.mu.Unlock()
	return shard.BuildCluster(ctx, req)
}

// TestClusterWorkersFollowBuiltClusters pins the per-cluster worker
// rule max(1, total/built): a delta's one dirty cluster gets the whole
// worker budget, a cold build with K ≥ total gets 1 per cluster, and ER
// clusters always get 1. The delta's sparsifier is the same at every
// budget.
func TestClusterWorkersFollowBuiltClusters(t *testing.T) {
	ctx := context.Background()
	g := threeCommunities(14, 11)
	run := func(o shard.Options) (*sparsify.Result, []int) {
		t.Helper()
		rd := &recordDispatcher{}
		o.Dispatcher = rd
		res, err := shard.Sparsify(ctx, g, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Shards.Abandoned {
			t.Fatal("plan abandoned; fixture needs retuning")
		}
		return res, rd.workers
	}
	allEqual := func(name string, got []int, want int) {
		t.Helper()
		if len(got) == 0 {
			t.Fatalf("%s: no cluster went through the dispatcher", name)
		}
		for _, w := range got {
			if w != want {
				t.Fatalf("%s: per-cluster workers %v, want all %d", name, got, want)
			}
		}
	}

	// Cold builds: K = 3 clusters, all dirty.
	cold := shard.Options{Shards: 3, Sparsify: sparsify.Options{Seed: 5, Workers: 2}}
	base, ws := run(cold)
	if base.Shards.Shards < cold.Sparsify.Workers {
		t.Fatalf("K = %d, want ≥ %d", base.Shards.Shards, cold.Sparsify.Workers)
	}
	allEqual("cold, K ≥ total", ws, 1)
	wide := cold
	wide.Sparsify.Workers = 2 * base.Shards.Shards
	_, ws = run(wide)
	allEqual("cold, total = 2K", ws, 2)
	er := wide
	er.Sparsify.Method = sparsify.ER
	_, ws = run(er)
	allEqual("ER", ws, 1)

	// A reweight confined to community 0 dirties one cluster.
	var d graph.Delta
	for _, ed := range g.Edges {
		if ed.U < 14*14 && ed.V < 14*14 && len(d.Set) < 8 {
			d.Set = append(d.Set, graph.Edge{U: ed.U, V: ed.V, W: ed.W * 1.5})
		}
	}
	p, err := d.ApplyPatch(g)
	if err != nil {
		t.Fatal(err)
	}
	var deltas []*sparsify.Result
	for _, total := range []int{1, 4} {
		o := cold
		o.Sparsify.Workers = total
		o.BaseAssign = base.Shards.Assign
		o.Localize = localizeFromBase(base, p)
		rd := &recordDispatcher{}
		o.Dispatcher = rd
		res, err := shard.Sparsify(ctx, p.G, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Shards.DirtyClusters != 1 {
			t.Fatalf("DirtyClusters = %d, want 1", res.Shards.DirtyClusters)
		}
		allEqual("one dirty cluster", rd.workers, total)
		deltas = append(deltas, res)
	}
	if !slices.Equal(deltas[0].EdgeIdx, deltas[1].EdgeIdx) {
		t.Fatal("delta sparsifier depends on the per-cluster worker count")
	}
}

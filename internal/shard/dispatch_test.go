package shard_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
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

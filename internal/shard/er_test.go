package shard_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/shard"
	"repro/internal/sparsify"
)

// recordingCache counts cluster-cache traffic so tests can assert which
// build paths consult and populate it.
type recordingCache struct {
	mu   sync.Mutex
	m    map[string][][2]int
	adds int
}

func newRecordingCache() *recordingCache {
	return &recordingCache{m: make(map[string][][2]int)}
}

func (c *recordingCache) GetCluster(key string) ([][2]int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	return e, ok
}

func (c *recordingCache) AddCluster(key string, edges [][2]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = edges
	c.adds++
}

func TestShardedERConnectedAndDeterministic(t *testing.T) {
	g := threeCommunities(10, 3)
	opts := func(workers int) shard.Options {
		return shard.Options{
			Shards:   3,
			Sparsify: sparsify.Options{Method: sparsify.ER, Seed: 9, Workers: workers},
		}
	}
	a, err := shard.Sparsify(context.Background(), g, opts(4))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Sparsifier.Connected() {
		t.Fatal("sharded ER sparsifier is disconnected")
	}
	if a.Reweight == nil {
		t.Fatal("sharded ER result carries no reweight vector")
	}
	reweighted := 0
	for e, w := range a.Reweight {
		if w > 0 {
			reweighted++
			if !a.InSub[e] {
				t.Fatalf("edge %d reweighted but not in the sparsifier", e)
			}
		}
	}
	if reweighted == 0 {
		t.Error("no edge carries an importance-sampling weight")
	}
	if got := len(a.EdgeIdx); got != a.Sparsifier.M() {
		t.Fatalf("EdgeIdx %d != sparsifier edges %d", got, a.Sparsifier.M())
	}

	b, err := shard.Sparsify(context.Background(), g, opts(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.EdgeIdx) != len(b.EdgeIdx) {
		t.Fatalf("runs disagree on size: %d vs %d", len(a.EdgeIdx), len(b.EdgeIdx))
	}
	for i := range a.EdgeIdx {
		if a.EdgeIdx[i] != b.EdgeIdx[i] {
			t.Fatalf("runs disagree at edge %d: %d vs %d", i, a.EdgeIdx[i], b.EdgeIdx[i])
		}
	}
	for e := range a.Reweight {
		if a.Reweight[e] != b.Reweight[e] {
			t.Fatalf("reweight %d differs across worker counts: %g vs %g", e, a.Reweight[e], b.Reweight[e])
		}
	}
}

// TestShardedERReportsSketchTelemetry: a sharded ER build sums every
// cluster's sketch count and estimation time into the result's Stats,
// as it does the tree, score and factor phases.
func TestShardedERReportsSketchTelemetry(t *testing.T) {
	g := threeCommunities(10, 3)
	res, err := shard.Sparsify(context.Background(), g, shard.Options{
		Shards:   3,
		Sparsify: sparsify.Options{Method: sparsify.ER, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards == nil || res.Shards.Abandoned {
		t.Fatal("ER build did not run the sharded pipeline")
	}
	built := 0
	for _, sb := range res.Shards.PerShard {
		if sb.SparsifierEdges < sb.Edges {
			built++
		}
	}
	if built == 0 {
		t.Fatal("no cluster was sparsified")
	}
	// Every sparsified cluster solves at least the estimator's minimum
	// of 8 sketch columns.
	if res.Stats.ERSketches < 8*built {
		t.Errorf("Stats.ERSketches = %d over %d sparsified clusters, want at least %d",
			res.Stats.ERSketches, built, 8*built)
	}
	if res.Stats.ERTime <= 0 {
		t.Errorf("Stats.ERTime = %v, want the clusters' estimation time", res.Stats.ERTime)
	}
}

// TestShardedERSkipsClusterCache: the cluster cache's index-free edge
// representation cannot carry ER's per-edge weights, so ER builds must
// neither populate nor consult it — while the default method on the same
// graph exercises both sides, proving the wiring is live.
func TestShardedERSkipsClusterCache(t *testing.T) {
	g := threeCommunities(8, 5)
	ctx := context.Background()

	erCache := newRecordingCache()
	erOpts := shard.Options{
		Shards:   3,
		Cache:    erCache,
		Sparsify: sparsify.Options{Method: sparsify.ER, Seed: 2},
	}
	if _, err := shard.Sparsify(ctx, g, erOpts); err != nil {
		t.Fatal(err)
	}
	if erCache.adds != 0 {
		t.Errorf("ER build stored %d cluster entries, want 0", erCache.adds)
	}
	res, err := shard.Sparsify(ctx, g, erOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards.ClustersReused != 0 {
		t.Errorf("ER rebuild reused %d clusters, want 0", res.Shards.ClustersReused)
	}

	trCache := newRecordingCache()
	trOpts := shard.Options{
		Shards:   3,
		Cache:    trCache,
		Sparsify: sparsify.Options{Seed: 2},
	}
	if _, err := shard.Sparsify(ctx, g, trOpts); err != nil {
		t.Fatal(err)
	}
	if trCache.adds == 0 {
		t.Fatal("trace build did not populate the cluster cache (wiring dead, ER assertion vacuous)")
	}
	res, err = shard.Sparsify(ctx, g, trOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards.ClustersReused == 0 {
		t.Error("trace rebuild reused no clusters despite a warm cache")
	}
}

package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestEngineUpdateReusesClusters: a delta rebuild through the engine
// reuses untouched clusters from the cluster store, lands in the
// incremental counters and latency track, and is cached under the updated
// graph's own key so plain Sparsify traffic hits it.
func TestEngineUpdateReusesClusters(t *testing.T) {
	ctx := context.Background()
	g := gen.Grid2D(40, 40, 1)
	e := New(Options{ShardThreshold: 400})
	base, _, err := e.Sparsify(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Handle.Sharded() {
		t.Fatal("base build below threshold")
	}
	if e.ClusterStore().Len() == 0 {
		t.Fatal("cold sharded build did not populate the cluster store")
	}

	d := graph.Delta{Set: []graph.Edge{{U: 0, V: 1, W: 5}}}
	art, cached, err := e.Update(ctx, base.Key, d)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first update reported cached")
	}
	if art.Key == base.Key {
		t.Fatal("updated artifact kept the base key")
	}
	st := art.Handle.ShardStats()
	if st == nil || !st.Incremental {
		t.Fatalf("update did not take the incremental path: %+v", st)
	}
	if st.ClustersReused == 0 {
		t.Fatal("no clusters reused")
	}
	if st.ClustersReused >= st.Shards {
		t.Fatalf("all %d clusters reused despite a dirty edge", st.Shards)
	}

	s := e.Stats()
	if s.IncrementalBuilds != 1 {
		t.Fatalf("incremental_builds = %d, want 1", s.IncrementalBuilds)
	}
	if s.ClustersReused != int64(st.ClustersReused) {
		t.Fatalf("clusters_reused = %d, want %d", s.ClustersReused, st.ClustersReused)
	}
	// The localized stitch adopts clean clusters by index without store
	// lookups, so the update contributes no hits; the cold build's
	// per-cluster misses must still be accounted.
	if s.ClusterMisses == 0 {
		t.Fatalf("cluster store accounting: hits=%d misses=%d", s.ClusterHits, s.ClusterMisses)
	}
	if !st.StitchLocalized && s.ClusterHits == 0 {
		t.Fatalf("non-localized update should hit the cluster store: hits=%d", s.ClusterHits)
	}
	// The incremental build must be in the incremental latency track, not
	// the cold one (the cold build + no solves ran besides it).
	if s.IncrementalLatencyCount != 1 || s.LatencyCount != 1 {
		t.Fatalf("latency tracks hold incremental=%d cold=%d observations, want 1 and 1",
			s.IncrementalLatencyCount, s.LatencyCount)
	}

	// A plain Sparsify of the updated graph hits the incremental artifact.
	newG, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	again, hit, err := e.Sparsify(ctx, newG)
	if err != nil || !hit || again != art {
		t.Fatalf("sparsify(updated graph): hit=%v same=%v err=%v", hit, again == art, err)
	}

	// Repeating the identical update is a whole-graph cache hit.
	art2, cached, err := e.Update(ctx, base.Key, d)
	if err != nil || !cached || art2 != art {
		t.Fatalf("repeat update: cached=%v same=%v err=%v", cached, art2 == art, err)
	}
}

// TestEngineUpdateUnknownKey: updating an absent base key fails with
// ErrUnknownKey (the server maps it to 404).
func TestEngineUpdateUnknownKey(t *testing.T) {
	e := New(Options{})
	_, _, err := e.Update(context.Background(), "g9-9-0000000000000000",
		graph.Delta{Set: []graph.Edge{{U: 0, V: 1, W: 1}}})
	if !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("err = %v, want ErrUnknownKey", err)
	}
}

// TestClusterStoreLRU: the cluster store evicts least-recently-used
// entries and keeps both halves (edges, factor) of a surviving key.
func TestClusterStoreLRU(t *testing.T) {
	s := NewClusterStore(2, 0)
	s.AddCluster("a", [][2]int{{0, 1}})
	s.AddCluster("b", [][2]int{{1, 2}})
	s.AddFactor("a", nil, []int{0, 1}) // nil factor slot still refreshes recency
	s.AddCluster("c", [][2]int{{2, 3}})
	if _, ok := s.GetCluster("b"); ok {
		t.Fatal("LRU kept the stalest entry")
	}
	if _, ok := s.GetCluster("a"); !ok {
		t.Fatal("LRU dropped a freshly touched entry")
	}
	if s.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions())
	}
}

// TestClusterCacheDisabled: a negative ClusterCacheSize disables the
// store without breaking builds or updates (they just reuse nothing from
// the engine; the handle-level seed cache still works).
func TestClusterCacheDisabled(t *testing.T) {
	ctx := context.Background()
	g := gen.Grid2D(30, 30, 1)
	e := New(Options{ShardThreshold: 200, ClusterCacheSize: -1})
	if e.ClusterStore() != nil {
		t.Fatal("cluster store exists despite being disabled")
	}
	base, _, err := e.Sparsify(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	art, _, err := e.Update(ctx, base.Key, graph.Delta{Set: []graph.Edge{{U: 0, V: 1, W: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if st := art.Handle.ShardStats(); st == nil || !st.Incremental || st.ClustersReused == 0 {
		t.Fatalf("handle-seeded reuse failed without engine store: %+v", st)
	}
}

package shard_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/sparsify"
)

// edgeIdxHash is the FNV-64a of a sorted edge-index list, each index
// written as 8 little-endian bytes.
func edgeIdxHash(idx []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range idx {
		binary.LittleEndian.PutUint64(buf[:], uint64(e))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// edgeSetHash is the FNV-64a of a graph's edge list as (U, V, weight
// bits) triples, in edge order.
func edgeSetHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for _, e := range g.Edges {
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.U))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.V))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(e.W))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestColdBuildStitchGolden pins the exact sparsifier edge set of a cold
// sharded build (a fresh plan, no base decisions, so every cluster is
// dirty and the stitch decides every cut edge) on graphs whose cut pools
// overflow the recovery quota, so the scored recovery round runs. The
// hashes were recorded from the earlier separate full-stitch code path;
// any change to the forest sweep, the quota or the recovery round shows
// up here as a hash change.
func TestColdBuildStitchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five 10k-20k vertex graphs")
	}
	cases := []struct {
		name string
		g    func() *graph.Graph
		hash uint64
		size int
		slow bool // over a minute; skipped under the race detector
	}{
		{"circuit112", func() *graph.Graph { return gen.CircuitGrid(112, 112, 0.08, 1) }, 0x48ca8fae73e95122, 14592, false},
		{"grid3d24", func() *graph.Graph { return gen.Grid3D(24, 24, 24, 1) }, 0xca1f6734faece20, 18775, false},
		{"geometric20k", func() *graph.Graph { return gen.RandomGeometric(20000, 0.012, 2) }, 0x42b28d32bca8d26, 47045, true},
		{"circuit128", func() *graph.Graph { return gen.CircuitGrid(128, 128, 0.3, 5) }, 0xb9bb72f1a4ae9b5f, 19320, false},
		{"tri150", func() *graph.Graph { return gen.Tri2D(150, 150, 3) }, 0x22ce49fe6c00ab9d, 26690, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && raceEnabled {
				t.Skip("over a minute without the race detector")
			}
			g := tc.g()
			opts := shard.Options{Threshold: 1500, Sparsify: sparsify.Options{Seed: 1}}
			plan, err := shard.NewPlan(context.Background(), g, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := shard.Run(context.Background(), g, plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := edgeIdxHash(res.EdgeIdx); got != tc.hash || len(res.EdgeIdx) != tc.size {
				t.Errorf("EdgeIdx hash %#x over %d edges (want %#x over %d); cut %d, recovered %d",
					got, len(res.EdgeIdx), tc.hash, tc.size, len(plan.CutEdges), res.Shards.CutRecovered)
			}
			if res.Shards.StitchLocalized || res.Shards.DirtyClusters != 0 {
				t.Errorf("cold build reported StitchLocalized=%v DirtyClusters=%d",
					res.Shards.StitchLocalized, res.Shards.DirtyClusters)
			}
		})
	}
}

// TestPlanReuseUpdateGolden pins core.UpdateSparsifier — a rebuild on the
// base handle's retained plan with no patch, hence no base stitch
// decisions — after a reweight in one corner of a sharded grid.
func TestPlanReuseUpdateGolden(t *testing.T) {
	g := gen.Grid2D(48, 48, 2)
	cfg := core.Config{ShardThreshold: 600, Sparsify: sparsify.Options{Seed: 1}}
	base, err := core.NewSparsifier(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e0 := g.Edges[0]
	g2, err := graph.Delta{Set: []graph.Edge{{U: e0.U, V: e0.V, W: e0.W * 7}}}.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := core.UpdateSparsifier(context.Background(), base, g2)
	if err != nil {
		t.Fatal(err)
	}
	st := upd.ShardStats()
	if st == nil || !st.Incremental || st.StitchLocalized {
		t.Fatalf("plan-reuse update stats %+v: want Incremental, not localized", st)
	}
	sub := upd.SparsifierGraph()
	if got, want := edgeSetHash(sub), uint64(0x5c7965b984167bf5); got != want || sub.M() != 2650 {
		t.Errorf("updated sparsifier hash %#x over %d edges (want %#x over 2650); reused %d of %d clusters",
			got, sub.M(), want, st.ClustersReused, st.Shards)
	}
}

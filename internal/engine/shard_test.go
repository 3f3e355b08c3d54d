package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestShardedAdmissionAboveMaxVertices: a graph above MaxVertices — which
// PR 2 rejected with ErrTooLarge — is now admitted through the sharded
// pipeline, and the artifact records its shard telemetry.
func TestShardedAdmissionAboveMaxVertices(t *testing.T) {
	g := gen.Grid2D(40, 40, 1) // 1600 vertices
	e := New(Options{MaxVertices: 500})

	art, hit, err := e.Sparsify(context.Background(), g)
	if err != nil {
		t.Fatalf("graph above MaxVertices rejected: %v", err)
	}
	if hit {
		t.Fatal("cold build reported as cache hit")
	}
	if !art.Handle.Sharded() {
		t.Fatal("oversized graph was built monolithically")
	}
	st := art.Handle.ShardStats()
	// threshold clamps to MaxVertices=500, so 1600 vertices need ≥ 4 clusters.
	if st.Shards < 4 {
		t.Fatalf("got %d shards, want ≥ 4 for 1600 vertices at threshold 500", st.Shards)
	}
	s := e.Stats()
	if s.ShardedBuilds != 1 || s.ShardsBuilt < 4 {
		t.Fatalf("stats: sharded_builds=%d shards_built=%d", s.ShardedBuilds, s.ShardsBuilt)
	}

	// And the artifact is fully usable: solve through it.
	b := make([]float64, g.N)
	b[0], b[g.N-1] = 1, -1
	r, err := e.SolveArtifact(context.Background(), art, b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatal("solve through sharded artifact did not converge")
	}
}

// TestHardCapStillRejects: the sharded path has its own ceiling.
func TestHardCapStillRejects(t *testing.T) {
	g := gen.Grid2D(40, 40, 1) // 1600 vertices
	e := New(Options{MaxVertices: 100, HardMaxVertices: 1000})
	_, _, err := e.Sparsify(context.Background(), g)
	if !errors.Is(err, core.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestShardConfigInKey: the same graph built with different shard
// configurations yields distinct artifacts (distinct store keys), while
// repeated identical requests coalesce on one.
func TestShardConfigInKey(t *testing.T) {
	g := gen.Grid2D(30, 30, 2)
	e := New(Options{})
	ctx := context.Background()

	mono, _, err := e.Sparsify(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	sharded, hit, err := e.SparsifyWith(ctx, g, BuildOpts{ShardThreshold: 200, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("different shard config must not hit the monolithic cache entry")
	}
	if mono.Key == sharded.Key {
		t.Fatalf("monolithic and sharded artifacts share key %q", mono.Key)
	}
	if mono.Handle.Sharded() || !sharded.Handle.Sharded() {
		t.Fatalf("paths mixed up: mono sharded=%v, sharded sharded=%v",
			mono.Handle.Sharded(), sharded.Handle.Sharded())
	}
	// Same override again: cache hit on the sharded key.
	again, hit, err := e.SparsifyWith(ctx, g, BuildOpts{ShardThreshold: 200, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !hit || again != sharded {
		t.Fatal("identical sharded request did not hit the cache")
	}
	// Both remain addressable by key.
	if _, ok := e.Lookup(mono.Key); !ok {
		t.Fatal("monolithic artifact lost")
	}
	if _, ok := e.Lookup(sharded.Key); !ok {
		t.Fatal("sharded artifact lost")
	}
}

// TestLatencyPercentiles: after at least one job, the digest percentile
// fields are populated and ordered.
func TestLatencyPercentiles(t *testing.T) {
	g := gen.Grid2D(12, 12, 3)
	e := New(Options{})
	if _, _, err := e.Sparsify(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.P50LatencyUS <= 0 {
		t.Fatalf("p50 = %g µs, want > 0 after a completed job", s.P50LatencyUS)
	}
	if s.P50LatencyUS > s.P95LatencyUS || s.P95LatencyUS > s.P99LatencyUS {
		t.Fatalf("percentiles unordered: p50=%g p95=%g p99=%g µs",
			s.P50LatencyUS, s.P95LatencyUS, s.P99LatencyUS)
	}
}

// TestPrecondInKeyAndStats: the preconditioner is not part of the
// artifact identity. A build's key is the graph fingerprint, the handle
// reports the monolithic factor it carries, and the artifact solves.
func TestPrecondInKeyAndStats(t *testing.T) {
	g := gen.Grid2D(30, 30, 2)
	e := New(Options{})
	ctx := context.Background()

	art, _, err := e.Sparsify(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if want := FingerprintGraph(g).Key(); art.Key != want {
		t.Fatalf("key %q, want the plain fingerprint key %q", art.Key, want)
	}
	if ps := art.Handle.PrecondStats(); ps == nil || ps.Kind != "monolithic" || ps.FactorNNZ <= 0 {
		t.Fatalf("build reports precond %+v", art.Handle.PrecondStats())
	}
	b := make([]float64, g.N)
	b[0], b[g.N-1] = 1, -1
	r, err := e.SolveArtifact(ctx, art, b, 1e-6)
	if err != nil || !r.Converged {
		t.Fatalf("solve: converged=%v err=%v", r != nil && r.Converged, err)
	}
}

// TestShardedBuildGetsMonolithicByDefault: above the shard threshold the
// handle builds sharded and, by default, carries the monolithic factor of
// the stitched sparsifier, not Schwarz over the plan's clusters.
func TestShardedBuildGetsMonolithicByDefault(t *testing.T) {
	g := gen.Grid2D(40, 40, 1)
	e := New(Options{ShardThreshold: 400})
	art, _, err := e.Sparsify(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !art.Handle.Sharded() {
		t.Fatal("build below threshold")
	}
	ps := art.Handle.PrecondStats()
	if ps == nil || ps.Kind != "monolithic" || ps.FactorNNZ <= 0 {
		t.Fatalf("sharded build precond = %+v, want monolithic", ps)
	}
	if art.Handle.Pencil().Factor() == nil {
		t.Fatal("sharded artifact has no monolithic factor")
	}
	// Compact (already run by the engine) retains the plan assignment and
	// cluster keys — the incremental Update path maps deltas through them.
	if st := art.Handle.ShardStats(); st.Assign == nil || len(st.ClusterKeys) != st.Shards {
		t.Fatalf("published artifact lost incremental scaffolding: assign=%v keys=%d shards=%d",
			st.Assign != nil, len(st.ClusterKeys), st.Shards)
	}
	if s := e.Stats(); s.ShardedBuilds != 1 {
		t.Fatalf("stats: sharded_builds=%d", s.ShardedBuilds)
	}
}

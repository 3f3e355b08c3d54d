package trsparse_test

// Runnable godoc examples for the v2 handle API. `go test` compiles and
// runs them against the printed output, so pkg.go.dev shows code that is
// guaranteed to work; keep them small enough to finish in milliseconds.

import (
	"context"
	"fmt"
	"log"

	trsparse "repro"
)

// ExampleNew builds a Sparsifier handle once and reads its construction
// facts. Construction runs the paper's Algorithm 2 and factorizes the
// result; everything afterwards reuses that work.
func ExampleNew() {
	g := trsparse.Grid2D(20, 20, 1) // a 400-vertex weighted grid
	s, err := trsparse.New(context.Background(), g,
		trsparse.WithAlpha(0.10), // paper default: recover 10%·|V| off-tree edges
		trsparse.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("vertices:", s.N())
	fmt.Println("sparsifier is a subgraph:", s.SparsifierGraph().M() <= g.M())
	// Output:
	// vertices: 400
	// sparsifier is a subgraph: true
}

// ExampleSparsifier_Solve solves L_G x = b through the handle's cached
// factorization — the call that serving workloads repeat thousands of
// times per build.
func ExampleSparsifier_Solve() {
	g := trsparse.Grid2D(20, 20, 1)
	s, err := trsparse.New(context.Background(), g, trsparse.WithSeed(1), trsparse.WithTolerance(1e-6))
	if err != nil {
		log.Fatal(err)
	}
	b := make([]float64, s.N())
	b[0], b[s.N()-1] = 1, -1 // inject current at two corners
	sol, err := s.Solve(context.Background(), b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("converged:", sol.Converged)
	fmt.Println("solution length:", len(sol.X))
	// Output:
	// converged: true
	// solution length: 400
}

// ExampleWithShards routes a graph through the partition-parallel
// pipeline: clusters are sparsified concurrently and stitched, the handle
// carries per-shard telemetry, and the stitched sparsifier is factorized
// whole, as an unsharded build's is.
func ExampleWithShards() {
	g := trsparse.Grid2D(40, 40, 1)
	s, err := trsparse.New(context.Background(), g,
		trsparse.WithShardThreshold(400), // shard graphs above 400 vertices
		trsparse.WithShards(4),           // into (about) 4 clusters
		trsparse.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	st := s.ShardStats()
	fmt.Println("sharded:", s.Sharded())
	fmt.Println("clusters planned:", st.Shards >= 4)
	fmt.Println("preconditioner:", s.PrecondStats().Kind)
	// Output:
	// sharded: true
	// clusters planned: true
	// preconditioner: monolithic
}

// ExampleSparsifier_Update applies an edge delta incrementally: clusters
// the delta does not touch keep their sparsifiers, and the factor is
// recomputed only in the rows the edit reaches, so the rebuild costs a
// fraction of a cold build.
func ExampleSparsifier_Update() {
	g := trsparse.Grid2D(40, 40, 1)
	s, err := trsparse.New(context.Background(), g,
		trsparse.WithShardThreshold(400), trsparse.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	s2, err := s.Update(context.Background(), trsparse.Delta{
		Set: []trsparse.Edge{{U: 0, V: 1, W: 5}}, // one conductance changed
	})
	if err != nil {
		log.Fatal(err)
	}
	st := s2.ShardStats()
	fmt.Println("incremental:", st.Incremental)
	fmt.Println("reused most clusters:", 2*st.ClustersReused > st.Shards)
	fmt.Println("base handle unchanged:", s.N() == s2.N())
	// Output:
	// incremental: true
	// reused most clusters: true
	// base handle unchanged: true
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gen"
	"repro/internal/precond"
)

// BenchmarkSolveThroughput is the PR-8 solve-path benchmark: the same 8
// right-hand sides against the same cached artifact, solved to the same
// 1e-6 tolerance four ways. "independent" is the pre-batching baseline
// — 8 sequential SolveArtifact calls, each running its own scalar PCG
// with its own matrix sweep and preconditioner apply per iteration.
// "block" hands all 8 to SolveBatchArtifact, whose block PCG pays one
// matrix-panel sweep and one preconditioner panel apply per iteration
// for the whole batch; the win is memory-bandwidth-side (the matrix and
// factor traversals are amortized across columns) and shows even on one
// core. The two HTTP legs drive 8 concurrent single-rhs /v2/solve
// requests through a real server — ns/op includes the JSON codec and
// HTTP stack on both sides, so they are end-to-end numbers.
// "http-independent" runs with coalescing off (8 scalar solves);
// "coalesced-http" adds a 25 ms window, so the same block solve is
// assembled from independent network clients, and reports how many
// requests actually joined a batch (coalesced-per-op, batch-p50).
// Compare the two HTTP legs against each other: the delta is the
// coalescing win net of the window cost.
func BenchmarkSolveThroughput(b *testing.B) {
	const nrhs = 8
	const tol = 1e-6
	ctx := context.Background()
	g := gen.Grid2D(200, 200, 1)
	rng := rand.New(rand.NewSource(29))
	rhs := make([][]float64, nrhs)
	for k := range rhs {
		rhs[k] = make([]float64, g.N)
		for i := range rhs[k] {
			rhs[k][i] = rng.NormFloat64()
		}
	}
	newArtifact := func(b *testing.B, e *engine.Engine) *engine.Artifact {
		b.Helper()
		art, _, err := e.Sparsify(ctx, g)
		if err != nil {
			b.Fatal(err)
		}
		return art
	}

	b.Run("independent", func(b *testing.B) {
		e := engine.New(engine.Options{Workers: 4})
		art := newArtifact(b, e)
		b.ResetTimer()
		iters := 0
		for i := 0; i < b.N; i++ {
			for k := 0; k < nrhs; k++ {
				r, err := e.SolveArtifact(ctx, art, rhs[k], tol)
				if err != nil {
					b.Fatal(err)
				}
				if !r.Converged || r.RelRes > tol {
					b.Fatalf("rhs %d: converged=%v relres=%g", k, r.Converged, r.RelRes)
				}
				iters += r.Iterations
			}
		}
		b.ReportMetric(float64(iters)/float64(b.N), "pcg-iters")
	})

	b.Run("block", func(b *testing.B) {
		e := engine.New(engine.Options{Workers: 4})
		art := newArtifact(b, e)
		b.ResetTimer()
		iters := 0
		for i := 0; i < b.N; i++ {
			rs, err := e.SolveBatchArtifact(ctx, art, rhs, tol)
			if err != nil {
				b.Fatal(err)
			}
			for k, r := range rs {
				if !r.Converged || r.RelRes > tol {
					b.Fatalf("rhs %d: converged=%v relres=%g", k, r.Converged, r.RelRes)
				}
				iters += r.Iterations
			}
		}
		b.ReportMetric(float64(iters)/float64(b.N), "pcg-iters")
	})

	httpLeg := func(b *testing.B, window time.Duration) {
		e := engine.New(engine.Options{Workers: 4, CoalesceWindow: window})
		art := newArtifact(b, e)
		ts := httptest.NewServer(newServer(e).handler())
		defer ts.Close()
		client := ts.Client()
		post := func(k int) error {
			body, err := json.Marshal(solveRequest{Key: art.Key, B: rhs[k], Tol: tol})
			if err != nil {
				return err
			}
			resp, err := client.Post(ts.URL+"/v2/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			var sol solveResponse
			if err := json.NewDecoder(resp.Body).Decode(&sol); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK || !sol.Converged || sol.RelRes > tol {
				b.Errorf("rhs %d: status=%d converged=%v relres=%g", k, resp.StatusCode, sol.Converged, sol.RelRes)
			}
			return nil
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for k := 0; k < nrhs; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					if err := post(k); err != nil {
						b.Error(err)
					}
				}(k)
			}
			wg.Wait()
		}
		b.StopTimer()
		st := e.Stats()
		b.ReportMetric(float64(st.SolvesCoalesced)/float64(b.N), "coalesced-per-op")
		b.ReportMetric(st.BatchP50, "batch-p50")
	}

	b.Run("http-independent", func(b *testing.B) { httpLeg(b, 0) })
	b.Run("coalesced-http", func(b *testing.B) { httpLeg(b, 25*time.Millisecond) })
}

// BenchmarkFleetFactorBuild is the PR-10 fabric benchmark: one sharded
// Schwarz-preconditioned build of the 600×600 grid (the same deliberately
// unscaled graph as BenchmarkShardedSparsify) three ways. "local" is the
// coordinator doing everything in-process. "fleet" ships the cluster
// sparsifier builds to two in-process worker servers over the real
// HTTP/JSON wire but factorizes locally. "fleet-factors" additionally
// dispatches the per-cluster Schwarz factorizations to the same workers
// (-remote-factors). All three produce the bit-identical artifact — the
// pcg-iters metric proves it on a shared right-hand side — so the legs
// measure pure orchestration cost — wire codec and dispatch scheduling —
// against the in-process baseline.
func BenchmarkFleetFactorBuild(b *testing.B) {
	ctx := context.Background()
	g := gen.Grid2D(600, 600, 1)
	rng := rand.New(rand.NewSource(17))
	rhs := make([]float64, g.N)
	var sum float64
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
		sum += rhs[i]
	}
	for i := range rhs {
		rhs[i] -= sum / float64(len(rhs))
	}

	run := func(b *testing.B, nWorkers int, remoteFactors bool) {
		var art *engine.Artifact
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Fresh workers and a fresh engine per pass: the cluster and
			// factor caches on both sides would otherwise turn every pass
			// after the first into lookups.
			var fleet []string
			for w := 0; w < nWorkers; w++ {
				cache := engine.NewClusterStore(256, 0)
				ts := httptest.NewServer(newWorkerServer(fabric.NewWorker(cache, 4), cache).handler())
				defer ts.Close()
				fleet = append(fleet, ts.URL)
			}
			eng := engine.New(engine.Options{
				Workers:        4,
				CacheSize:      2,
				ShardThreshold: g.N / 32,
				Precond:        precond.Schwarz,
				Fleet:          fleet,
				RemoteFactors:  remoteFactors,
			})
			b.StartTimer()
			var err error
			art, _, err = eng.Sparsify(ctx, g)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			st := eng.Stats()
			if nWorkers > 0 && st.ClustersRemote == 0 {
				b.Fatal("fleet leg built no clusters remotely")
			}
			if remoteFactors && st.FactorsRemote == 0 {
				b.Fatal("fleet-factors leg built no factors remotely")
			}
			b.ReportMetric(float64(st.FactorsRemote)/float64(b.N), "factors-remote")
			b.StartTimer()
		}
		b.StopTimer()
		sol, err := art.Handle.Solve(ctx, rhs)
		if err != nil || !sol.Converged {
			b.Fatalf("solve: converged=%v err=%v", sol != nil && sol.Converged, err)
		}
		b.ReportMetric(float64(sol.Iterations), "pcg-iters")
	}

	b.Run("local", func(b *testing.B) { run(b, 0, false) })
	b.Run("fleet", func(b *testing.B) { run(b, 2, false) })
	b.Run("fleet-factors", func(b *testing.B) { run(b, 2, true) })
}

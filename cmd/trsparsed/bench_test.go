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
	"repro/internal/gen"
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

// BenchmarkRepeatSparsify is the hot-graph repeat POST: the mesh of
// perfbench's solve-hot workload (Tri2D(128,128), about 1.5 MB of JSON)
// is built once, then every op re-POSTs the byte-identical /v2/sparsify
// body over HTTP and reads the whole reply, sparsifier edges included.
// Every op is a cache hit, so ns/op, B/op and allocs/op are what the
// HTTP stack and the codec cost on top of the engine's store lookup
// (the client's read of the reply included, its decode not).
func BenchmarkRepeatSparsify(b *testing.B) {
	g := gen.Tri2D(128, 128, 1)
	body, err := json.Marshal(graphRequest(g))
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(newServer(engine.New(engine.Options{Workers: 2})).handler())
	defer ts.Close()
	client := ts.Client()
	var raw bytes.Buffer
	post := func() {
		resp, err := client.Post(ts.URL+"/v2/sparsify", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		raw.Reset()
		_, err = raw.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, err %v: %.200s", resp.StatusCode, err, raw.Bytes())
		}
	}
	check := func(cached bool) {
		var sp sparsifyResponse
		if err := json.Unmarshal(raw.Bytes(), &sp); err != nil {
			b.Fatal(err)
		}
		if sp.Cached != cached || sp.EdgeCount == 0 || len(sp.SparsifierEdges) != sp.EdgeCount {
			b.Fatalf("cached=%v (want %v), %d edges for a count of %d", sp.Cached, cached, len(sp.SparsifierEdges), sp.EdgeCount)
		}
	}
	post()
	check(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	check(true)
}

package main

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/gen"
)

// TestSparsifyMethodOverride: ?method=er builds a distinct,
// method-suffixed artifact; an unknown method is a 400 with the
// invalid_request code.
func TestSparsifyMethodOverride(t *testing.T) {
	ts := newTestServer(t)
	g := gen.Grid2D(25, 25, 6)

	var def sparsifyResponse
	if resp := postJSON(t, ts.URL+"/v2/sparsify?edges=false", graphRequest(g), &def); resp.StatusCode != http.StatusOK {
		t.Fatalf("default sparsify status = %d", resp.StatusCode)
	}

	var er sparsifyResponse
	if resp := postJSON(t, ts.URL+"/v2/sparsify?edges=false&method=er", graphRequest(g), &er); resp.StatusCode != http.StatusOK {
		t.Fatalf("?method=er status = %d", resp.StatusCode)
	}
	if er.Cached {
		t.Fatal("method override served the default artifact from cache")
	}
	if er.Key == def.Key || !strings.HasSuffix(er.Key, "-mer") {
		t.Fatalf("ER key = %q (default %q), want a distinct -mer-suffixed key", er.Key, def.Key)
	}

	// Same override again: cache hit under the suffixed key.
	var again sparsifyResponse
	postJSON(t, ts.URL+"/v2/sparsify?edges=false&method=er", graphRequest(g), &again)
	if !again.Cached || again.Key != er.Key {
		t.Fatalf("repeated ?method=er not cached: %+v", again)
	}

	// Spelled-out default: hits the plain entry, no suffix.
	var tr sparsifyResponse
	postJSON(t, ts.URL+"/v2/sparsify?edges=false&method=trace", graphRequest(g), &tr)
	if !tr.Cached || tr.Key != def.Key {
		t.Fatalf("?method=trace missed the default entry: %+v", tr)
	}

	var e errorResponse
	resp := postJSON(t, ts.URL+"/v2/sparsify?method=banana", graphRequest(g), &e)
	if resp.StatusCode != http.StatusBadRequest || e.Code != "invalid_request" {
		t.Fatalf("unknown method: status=%d code=%q, want 400 invalid_request", resp.StatusCode, e.Code)
	}
}

// TestSolveMethodOverride: ?method= applies to inline-graph solves and
// the solution still converges through the reweighted ER sparsifier.
func TestSolveMethodOverride(t *testing.T) {
	ts := newTestServer(t)
	g := gen.Grid2D(25, 25, 8)
	b := make([]float64, g.N)
	for i := range b {
		b[i] = signOf(i)
	}

	var sol solveResponse
	req := solveRequest{Graph: &graphPayload{N: g.N, Edges: edgesPayload(g)}, B: b, Tol: 1e-6}
	if resp := postJSON(t, ts.URL+"/v2/solve?method=er", req, &sol); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d", resp.StatusCode)
	}
	if !sol.Converged {
		t.Fatalf("ER-preconditioned solve did not converge: %d iterations, relres %g", sol.Iterations, sol.RelRes)
	}
	if !strings.HasSuffix(sol.Key, "-mer") {
		t.Fatalf("solve built key %q, want -mer suffix", sol.Key)
	}

	var e errorResponse
	resp := postJSON(t, ts.URL+"/v2/solve?method=nope", req, &e)
	if resp.StatusCode != http.StatusBadRequest || e.Code != "invalid_request" {
		t.Fatalf("unknown method on solve: status=%d code=%q", resp.StatusCode, e.Code)
	}
}

// TestPartitionBuildOverrides: an inline-graph partition builds with the
// same per-request overrides as sparsify and solve — ?method=er yields
// the -mer artifact, an unknown method is a 400.
func TestPartitionBuildOverrides(t *testing.T) {
	ts := newTestServer(t)
	g := gen.Grid2D(20, 20, 3)
	req := partitionRequest{Graph: &graphPayload{N: g.N, Edges: edgesPayload(g)}}

	var e errorResponse
	if resp := postJSON(t, ts.URL+"/v2/partition?method=banana", req, &e); resp.StatusCode != http.StatusBadRequest || e.Code != "invalid_request" {
		t.Fatalf("unknown method: status=%d code=%q, want 400 invalid_request", resp.StatusCode, e.Code)
	}
	var part partitionResponse
	if resp := postJSON(t, ts.URL+"/v2/partition?method=er", req, &part); resp.StatusCode != http.StatusOK {
		t.Fatalf("?method=er partition status = %d", resp.StatusCode)
	}
	if !strings.HasSuffix(part.Key, "-mer") || len(part.Partition) != g.N {
		t.Fatalf("?method=er partition: key %q with %d labels, want a -mer key and %d labels", part.Key, len(part.Partition), g.N)
	}
}

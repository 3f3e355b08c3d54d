package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/sparse"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(engine.New(engine.Options{Workers: 4, CacheSize: 8})).handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

func graphRequest(g *graph.Graph) sparsifyRequest {
	return sparsifyRequest{Graph: &graphPayload{N: g.N, Edges: edgesPayload(g)}}
}

func signOf(i int) float64 {
	if i%2 == 0 {
		return 1
	}
	return -1
}

// TestSparsifyAndSolveEndToEnd is the smoke test the issue requires:
// sparsify a Grid2D(50,50,1) graph over HTTP, then solve against the cached
// artifact and check PCG converged to 1e-6 — verified independently by
// recomputing the residual against the regularized Laplacian.
func TestSparsifyAndSolveEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	g := gen.Grid2D(50, 50, 1)

	var sp sparsifyResponse
	if resp := postJSON(t, ts.URL+"/v2/sparsify", graphRequest(g), &sp); resp.StatusCode != http.StatusOK {
		t.Fatalf("sparsify status = %d", resp.StatusCode)
	}
	if sp.Key == "" || sp.Cached {
		t.Fatalf("unexpected sparsify response: %+v", sp)
	}
	if sp.N != g.N || sp.M != g.M() {
		t.Fatalf("echoed dims %d/%d, want %d/%d", sp.N, sp.M, g.N, g.M())
	}
	if sp.EdgeCount <= 0 || sp.EdgeCount >= g.M() || len(sp.SparsifierEdges) != sp.EdgeCount {
		t.Fatalf("implausible sparsifier size %d of %d", sp.EdgeCount, g.M())
	}

	// A second identical sparsify must be served from the cache.
	var sp2 sparsifyResponse
	postJSON(t, ts.URL+"/v2/sparsify", graphRequest(g), &sp2)
	if !sp2.Cached || sp2.Key != sp.Key {
		t.Fatalf("second sparsify not cached: %+v", sp2)
	}

	rng := rand.New(rand.NewSource(7))
	b := make([]float64, g.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	var sol solveResponse
	if resp := postJSON(t, ts.URL+"/v2/solve",
		solveRequest{Key: sp.Key, B: b, Tol: 1e-6}, &sol); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d", resp.StatusCode)
	}
	if !sol.Converged || sol.Iterations <= 0 || sol.RelRes > 1e-6 {
		t.Fatalf("solve did not converge to 1e-6: iters=%d relres=%g", sol.Iterations, sol.RelRes)
	}
	if !sol.Cached {
		t.Fatal("solve by key did not report a cache hit")
	}

	// Independent residual check: ‖b − L_G x‖ / ‖b‖ against the same
	// regularized Laplacian the engine solves with.
	lg := lap.Laplacian(g, lap.Shift(g, 0))
	r := make([]float64, g.N)
	lg.MulVec(sol.X, r)
	var rn, bn float64
	for i := range r {
		d := b[i] - r[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	if rel := math.Sqrt(rn / bn); rel > 1e-6 {
		t.Fatalf("recomputed residual %g exceeds 1e-6", rel)
	}
}

func TestSolveInlineGraph(t *testing.T) {
	ts := newTestServer(t)
	g := gen.Grid2D(20, 20, 3)
	b := make([]float64, g.N)
	b[0], b[g.N-1] = 1, -1
	var sol solveResponse
	req := solveRequest{Graph: &graphPayload{N: g.N, Edges: edgesPayload(g)}, B: b, Tol: 1e-6}
	if resp := postJSON(t, ts.URL+"/v2/solve", req, &sol); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d", resp.StatusCode)
	}
	if !sol.Converged || sol.Cached {
		t.Fatalf("inline solve: %+v", sol)
	}
	// Same inline graph again: artifact now cached.
	var sol2 solveResponse
	postJSON(t, ts.URL+"/v2/solve", req, &sol2)
	if !sol2.Cached {
		t.Fatal("second inline solve missed the cache")
	}
}

func TestSparsifyMatrixMarketUpload(t *testing.T) {
	ts := newTestServer(t)
	g := gen.Grid2D(15, 15, 2)
	// Upload the graph as the SDD matrix form ReadMatrixMarketGraph accepts.
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, lap.Laplacian(g, nil), true); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v2/sparsify?format=mm", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sp sparsifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&sp); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if sp.N != g.N || sp.M != g.M() || sp.EdgeCount <= 0 {
		t.Fatalf("MM upload parsed wrong: %+v", sp)
	}
}

func TestSparsifyEdgesOptOut(t *testing.T) {
	ts := newTestServer(t)
	g := gen.Grid2D(10, 10, 1)
	var sp sparsifyResponse
	if resp := postJSON(t, ts.URL+"/v2/sparsify?edges=false", graphRequest(g), &sp); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(sp.SparsifierEdges) != 0 {
		t.Fatalf("edges=false still returned %d edges", len(sp.SparsifierEdges))
	}
	if sp.Key == "" || sp.EdgeCount <= 0 {
		t.Fatalf("count/key missing with edges=false: %+v", sp)
	}
}

func TestStatsAndHealth(t *testing.T) {
	ts := newTestServer(t)
	g := gen.Grid2D(12, 12, 1)
	postJSON(t, ts.URL+"/v2/sparsify", graphRequest(g), nil)
	postJSON(t, ts.URL+"/v2/sparsify", graphRequest(g), nil)

	resp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Builds != 1 || st.Hits != 1 || st.HitRate != 0.5 {
		t.Fatalf("stats after hit: builds=%d hits=%d rate=%g", st.Builds, st.Hits, st.HitRate)
	}
	if st.Workers <= 0 || st.LatencyCount <= 0 {
		t.Fatalf("stats missing telemetry: %+v", st)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", hresp.StatusCode)
	}
}

func TestErrorResponses(t *testing.T) {
	ts := newTestServer(t)

	// Unknown solve key → 404.
	var e errorResponse
	if resp := postJSON(t, ts.URL+"/v2/solve",
		solveRequest{Key: "g9-9-0000000000000000", B: []float64{1}}, &e); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key status = %d", resp.StatusCode)
	}
	if !strings.Contains(e.Error, "no cached artifact") {
		t.Fatalf("unhelpful error: %q", e.Error)
	}

	// Malformed JSON → 400.
	resp, err := http.Post(ts.URL+"/v2/sparsify", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", resp.StatusCode)
	}

	// Disconnected graph → 422. Enough edges to pass the connectivity
	// edge-count precheck (which 400s), but vertex 3 is isolated.
	req := sparsifyRequest{Graph: &graphPayload{N: 4, Edges: [][3]float64{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}}}}
	if resp := postJSON(t, ts.URL+"/v2/sparsify", req, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("disconnected graph status = %d", resp.StatusCode)
	}

	// Empty graph (n=0) → 400, not a crash: without validation this used
	// to panic inside a detached build goroutine and kill the process.
	empty := sparsifyRequest{Graph: &graphPayload{N: 0}}
	if resp := postJSON(t, ts.URL+"/v2/sparsify", empty, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty graph status = %d", resp.StatusCode)
	}

	// Inflated vertex count → 400 before any O(n) allocation: a tiny body
	// must not be able to declare two billion vertices.
	huge := sparsifyRequest{Graph: &graphPayload{N: 2_000_000_000, Edges: [][3]float64{{0, 1, 1}}}}
	if resp := postJSON(t, ts.URL+"/v2/sparsify", huge, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inflated n status = %d", resp.StatusCode)
	}

	// Same via a Matrix Market header declaring huge dimensions.
	mm := "%%MatrixMarket matrix coordinate real general\n2000000000 2000000000 1\n1 2 1.0\n"
	mmResp, err := http.Post(ts.URL+"/v2/sparsify?format=mm", "text/plain", strings.NewReader(mm))
	if err != nil {
		t.Fatal(err)
	}
	mmResp.Body.Close()
	if mmResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inflated MM dims status = %d", mmResp.StatusCode)
	}

	// Missing rhs → 400.
	if resp := postJSON(t, ts.URL+"/v2/solve", solveRequest{Key: "x"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing rhs status = %d", resp.StatusCode)
	}

	// Overflow-scale rhs: dot products overflow to Inf/NaN inside PCG, so
	// the response is unencodable JSON — must surface as a clean 500, not
	// a 200 with a truncated body.
	gTiny := gen.Grid2D(3, 3, 1)
	bHuge := make([]float64, gTiny.N)
	for i := range bHuge {
		bHuge[i] = math.MaxFloat64 * signOf(i)
	}
	ovReq := solveRequest{Graph: &graphPayload{N: gTiny.N, Edges: edgesPayload(gTiny)}, B: bHuge}
	var ovErr errorResponse
	if resp := postJSON(t, ts.URL+"/v2/solve", ovReq, &ovErr); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("overflow rhs status = %d", resp.StatusCode)
	}
	if strings.Contains(ovErr.Error, "NaN") {
		t.Fatalf("internal detail leaked to client: %q", ovErr.Error)
	}

	// Wrong method → 405 from the route table.
	getResp, err := http.Get(ts.URL + "/v2/sparsify")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET sparsify status = %d", getResp.StatusCode)
	}
}

// TestV2SparsifySolvePartition exercises the current API surface
// end-to-end: build via /v2/sparsify, solve by key via /v2/solve, and
// bipartition via /v2/partition.
func TestV2SparsifySolvePartition(t *testing.T) {
	ts := newTestServer(t)
	g := gen.Grid2D(30, 30, 4)

	var sp sparsifyResponse
	if resp := postJSON(t, ts.URL+"/v2/sparsify", graphRequest(g), &sp); resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 sparsify status = %d", resp.StatusCode)
	}
	if sp.Key == "" || sp.EdgeCount <= 0 {
		t.Fatalf("v2 sparsify response: %+v", sp)
	}

	b := make([]float64, g.N)
	b[0], b[g.N-1] = 1, -1
	var sol solveResponse
	if resp := postJSON(t, ts.URL+"/v2/solve",
		solveRequest{Key: sp.Key, B: b, Tol: 1e-6}, &sol); resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 solve status = %d", resp.StatusCode)
	}
	if !sol.Converged || !sol.Cached {
		t.Fatalf("v2 solve: %+v", sol)
	}

	var part partitionResponse
	if resp := postJSON(t, ts.URL+"/v2/partition",
		partitionRequest{Key: sp.Key}, &part); resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 partition status = %d", resp.StatusCode)
	}
	if len(part.Partition) != g.N {
		t.Fatalf("partition has %d entries, want %d", len(part.Partition), g.N)
	}
	zeros := 0
	for _, p := range part.Partition {
		if p == 0 {
			zeros++
		} else if p != 1 {
			t.Fatalf("partition label %d not in {0,1}", p)
		}
	}
	if zeros != g.N/2 && zeros != (g.N+1)/2 {
		t.Fatalf("median split unbalanced: %d of %d on side 0", zeros, g.N)
	}
}

// TestV2SolveHonorsRequestDeadline is the acceptance check: a /v2/solve
// with a 1 ms deadline must come back (503, code "canceled") well before a
// full cold solve of the same graph completes.
func TestV2SolveHonorsRequestDeadline(t *testing.T) {
	g := gen.Grid2D(70, 70, 6)
	b := make([]float64, g.N)
	for i := range b {
		b[i] = signOf(i)
	}
	req := solveRequest{Graph: &graphPayload{N: g.N, Edges: edgesPayload(g)}, B: b, Tol: 1e-10}

	// Reference: how long the full cold solve takes on a fresh server.
	tsFull := newTestServer(t)
	start := time.Now()
	if resp := postJSON(t, tsFull.URL+"/v2/solve", req, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("reference solve status = %d", resp.StatusCode)
	}
	full := time.Since(start)

	// Deadline request against another fresh server (nothing cached).
	tsDead := newTestServer(t)
	start = time.Now()
	var e errorResponse
	resp := postJSON(t, tsDead.URL+"/v2/solve?timeout_ms=1", req, &e)
	early := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline solve status = %d, want 503", resp.StatusCode)
	}
	if e.Code != "canceled" {
		t.Fatalf("deadline solve code = %q, want canceled", e.Code)
	}
	if early >= full {
		t.Fatalf("canceled request took %v, not faster than the full solve %v", early, full)
	}

	// Malformed deadline → 400.
	if resp := postJSON(t, tsDead.URL+"/v2/solve?timeout_ms=-5", req, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative timeout status = %d", resp.StatusCode)
	}
}

// TestV1RoutesRemoved: /v2 is the only API version; the former /v1 routes
// answer 404 and /v2 responses carry no deprecation marker.
func TestV1RoutesRemoved(t *testing.T) {
	ts := newTestServer(t)
	g := gen.Grid2D(10, 10, 2)
	buf, err := json.Marshal(graphRequest(g))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sparsify", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/sparsify status = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/stats status = %d, want 404", resp.StatusCode)
	}
	resp2, err := http.Post(ts.URL+"/v2/sparsify", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("POST /v2/sparsify status = %d", resp2.StatusCode)
	}
	if resp2.Header.Get("Deprecation") != "" {
		t.Fatal("v2 response wrongly marked deprecated")
	}
}

// TestV2StructuredErrorCodes: the error taxonomy is machine-readable.
func TestV2StructuredErrorCodes(t *testing.T) {
	ts := newTestServer(t)

	// Disconnected graph → 422 / "disconnected".
	var e errorResponse
	req := sparsifyRequest{Graph: &graphPayload{N: 4, Edges: [][3]float64{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}}}}
	if resp := postJSON(t, ts.URL+"/v2/sparsify", req, &e); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("disconnected status = %d", resp.StatusCode)
	}
	if e.Code != "disconnected" {
		t.Fatalf("disconnected code = %q", e.Code)
	}

	// Unknown key → 404 / "unknown_key".
	if resp := postJSON(t, ts.URL+"/v2/solve",
		solveRequest{Key: "g9-9-0000000000000000", B: []float64{1}}, &e); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key status = %d", resp.StatusCode)
	}
	if e.Code != "unknown_key" {
		t.Fatalf("unknown key code = %q", e.Code)
	}

	// Mis-sized rhs against a cached artifact → 400 / "dimension".
	g := gen.Grid2D(8, 8, 1)
	var sp sparsifyResponse
	postJSON(t, ts.URL+"/v2/sparsify", graphRequest(g), &sp)
	if resp := postJSON(t, ts.URL+"/v2/solve",
		solveRequest{Key: sp.Key, B: []float64{1, 2}}, &e); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dimension status = %d", resp.StatusCode)
	}
	if e.Code != "dimension" {
		t.Fatalf("dimension code = %q", e.Code)
	}
}

// TestV2MaxVerticesAdmission: -max-vertices no longer rejects outright —
// graphs above it are served through the sharded pipeline — but the hard
// cap (8x by default, or -hard-max-vertices) still surfaces as 413 /
// "too_large".
func TestV2MaxVerticesAdmission(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2, CacheSize: 2, MaxVertices: 50})
	ts := httptest.NewServer(newServer(eng).handler())
	t.Cleanup(ts.Close)
	g := gen.Grid2D(25, 25, 1) // 625 vertices > 8·50 hard cap
	var e errorResponse
	if resp := postJSON(t, ts.URL+"/v2/sparsify", graphRequest(g), &e); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized graph status = %d, want 413", resp.StatusCode)
	}
	if e.Code != "too_large" {
		t.Fatalf("oversized graph code = %q", e.Code)
	}
}

// TestV2ShardedAdmissionEndToEnd is the PR's acceptance scenario: a graph
// larger than the engine's MaxVertices — rejected with too_large in PR 2 —
// is now served end-to-end through /v2/sparsify via the sharded path, and
// a subsequent /v2/solve against the returned key converges.
func TestV2ShardedAdmissionEndToEnd(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 4, CacheSize: 4, MaxVertices: 500})
	ts := httptest.NewServer(newServer(eng).handler())
	t.Cleanup(ts.Close)
	g := gen.Grid2D(40, 40, 1) // 1600 vertices: above 500, below the 4000 hard cap

	var sp sparsifyResponse
	if resp := postJSON(t, ts.URL+"/v2/sparsify?edges=false", graphRequest(g), &sp); resp.StatusCode != http.StatusOK {
		t.Fatalf("sparsify status = %d, want 200", resp.StatusCode)
	}
	if sp.Sharded == nil {
		t.Fatal("response has no sharded block for an above-limit graph")
	}
	if sp.Sharded.Shards < 4 {
		t.Fatalf("shards = %d, want ≥ 4 at threshold 500 for 1600 vertices", sp.Sharded.Shards)
	}
	if sp.Sharded.CutRetained < sp.Sharded.Shards-1 {
		t.Fatalf("cut_retained = %d < K-1 = %d", sp.Sharded.CutRetained, sp.Sharded.Shards-1)
	}

	b := make([]float64, g.N)
	for i := range b {
		b[i] = signOf(i)
	}
	var sol solveResponse
	if resp := postJSON(t, ts.URL+"/v2/solve", solveRequest{Key: sp.Key, B: b}, &sol); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d, want 200", resp.StatusCode)
	}
	if !sol.Converged {
		t.Fatalf("solve through the sharded artifact did not converge (relres %g)", sol.RelRes)
	}

	// /v2/stats reports the sharded build and the derived percentiles.
	resp, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ShardedBuilds != 1 || st.ShardsBuilt < 4 {
		t.Fatalf("stats: sharded_builds=%d shards_built=%d", st.ShardedBuilds, st.ShardsBuilt)
	}
	if st.P50LatencyUS <= 0 || st.P95LatencyUS < st.P50LatencyUS || st.P99LatencyUS < st.P95LatencyUS {
		t.Fatalf("stats percentiles: p50=%g p95=%g p99=%g µs", st.P50LatencyUS, st.P95LatencyUS, st.P99LatencyUS)
	}
}

// TestV2SparsifyShardParams: per-request ?shards=/?shard_threshold=
// overrides shard a graph the server defaults would build monolithically,
// and malformed values are rejected up front.
func TestV2SparsifyShardParams(t *testing.T) {
	ts := newTestServer(t)
	g := gen.Grid2D(30, 30, 2) // 900 vertices, monolithic by default

	var mono sparsifyResponse
	if resp := postJSON(t, ts.URL+"/v2/sparsify?edges=false", graphRequest(g), &mono); resp.StatusCode != http.StatusOK {
		t.Fatalf("default sparsify status = %d", resp.StatusCode)
	}
	if mono.Sharded != nil {
		t.Fatal("default build unexpectedly sharded")
	}

	var sharded sparsifyResponse
	url := ts.URL + "/v2/sparsify?edges=false&shard_threshold=200&shards=4"
	if resp := postJSON(t, url, graphRequest(g), &sharded); resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded sparsify status = %d", resp.StatusCode)
	}
	if sharded.Sharded == nil || sharded.Sharded.Shards < 4 {
		t.Fatalf("sharded block = %+v, want ≥ 4 shards", sharded.Sharded)
	}
	if sharded.Key == mono.Key {
		t.Fatal("sharded and monolithic artifacts share a key")
	}
	if !sharded.Cached {
		// Re-request with the identical override: must hit the cache.
		var again sparsifyResponse
		if resp := postJSON(t, url, graphRequest(g), &again); resp.StatusCode != http.StatusOK || !again.Cached {
			t.Fatalf("repeat sharded request: status=%d cached=%v", resp.StatusCode, again.Cached)
		}
	}

	var e errorResponse
	if resp := postJSON(t, ts.URL+"/v2/sparsify?shards=-1", graphRequest(g), &e); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative shards status = %d, want 400", resp.StatusCode)
	}
	if e.Code != "invalid_request" {
		t.Fatalf("negative shards code = %q", e.Code)
	}
}

// TestV2PrecondParam: ?precond= selects the preconditioner strategy, the
// response carries the stats block, and the strategy participates in the
// artifact identity. Solving through the Schwarz artifact still converges.
func TestV2PrecondParam(t *testing.T) {
	ts := newTestServer(t)
	g := gen.Grid2D(30, 30, 2)

	var auto sparsifyResponse
	if resp := postJSON(t, ts.URL+"/v2/sparsify?edges=false", graphRequest(g), &auto); resp.StatusCode != http.StatusOK {
		t.Fatalf("default sparsify status = %d", resp.StatusCode)
	}
	if auto.Precond == nil || auto.Precond.Kind != "monolithic" {
		t.Fatalf("default precond block = %+v, want monolithic", auto.Precond)
	}
	if auto.Precond.FactorNNZ <= 0 || auto.Precond.BuildMS < 0 {
		t.Fatalf("precond block incomplete: %+v", auto.Precond)
	}

	var sch sparsifyResponse
	if resp := postJSON(t, ts.URL+"/v2/sparsify?edges=false&precond=schwarz", graphRequest(g), &sch); resp.StatusCode != http.StatusOK {
		t.Fatalf("schwarz sparsify status = %d", resp.StatusCode)
	}
	if sch.Precond == nil || sch.Precond.Kind != "schwarz" || sch.Precond.Clusters < 2 {
		t.Fatalf("schwarz precond block = %+v", sch.Precond)
	}
	if sch.Key == auto.Key {
		t.Fatal("schwarz and auto artifacts share a key")
	}

	// Solve by key against the Schwarz artifact.
	b := make([]float64, g.N)
	for i := range b {
		b[i] = signOf(i)
	}
	var sol solveResponse
	if resp := postJSON(t, ts.URL+"/v2/solve", solveRequest{Key: sch.Key, B: b}, &sol); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d", resp.StatusCode)
	}
	if !sol.Converged || sol.Precond == nil || sol.Precond.Kind != "schwarz" {
		t.Fatalf("solve: converged=%v precond=%+v", sol.Converged, sol.Precond)
	}

	// Inline-graph solve with ?precond= builds (or reuses) the Schwarz
	// artifact directly.
	var sol2 solveResponse
	if resp := postJSON(t, ts.URL+"/v2/solve?precond=schwarz",
		solveRequest{Graph: &graphPayload{N: g.N, Edges: edgesPayload(g)}, B: b}, &sol2); resp.StatusCode != http.StatusOK {
		t.Fatalf("inline solve status = %d", resp.StatusCode)
	}
	if sol2.Key != sch.Key || !sol2.Converged {
		t.Fatalf("inline schwarz solve: key=%q want %q, converged=%v", sol2.Key, sch.Key, sol2.Converged)
	}

	var e errorResponse
	if resp := postJSON(t, ts.URL+"/v2/sparsify?precond=ilu", graphRequest(g), &e); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad precond status = %d, want 400", resp.StatusCode)
	}
	if e.Code != "invalid_request" {
		t.Fatalf("bad precond code = %q", e.Code)
	}
}

// TestV2Update: the incremental rebuild endpoint — sparsify a sharded
// graph, POST an edge delta against its key, and check the new artifact
// reports cluster reuse, lands under the updated graph's own key, and
// solves. Unknown keys and malformed deltas get structured errors.
func TestV2Update(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 4, CacheSize: 8, ShardThreshold: 400})
	ts := httptest.NewServer(newServer(eng).handler())
	t.Cleanup(ts.Close)

	g := gen.Grid2D(40, 40, 1)
	var sp sparsifyResponse
	if resp := postJSON(t, ts.URL+"/v2/sparsify?edges=false", graphRequest(g), &sp); resp.StatusCode != http.StatusOK {
		t.Fatalf("sparsify status %d", resp.StatusCode)
	}
	if sp.Sharded == nil {
		t.Fatal("base build not sharded")
	}

	var up updateResponse
	resp := postJSON(t, ts.URL+"/v2/update", updateRequest{
		Key: sp.Key,
		Set: [][3]float64{{0, 1, 5}},
	}, &up)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	if up.Key == sp.Key || up.BaseKey != sp.Key {
		t.Fatalf("keys: new=%q base=%q (base submitted %q)", up.Key, up.BaseKey, sp.Key)
	}
	if up.Cached {
		t.Fatal("first update reported cached")
	}
	if up.Reuse == nil || !up.Reuse.Incremental || up.Reuse.ClustersReused == 0 {
		t.Fatalf("reuse block: %+v", up.Reuse)
	}
	if up.Reuse.ClusterReuseFraction <= 0 || up.Reuse.ClusterReuseFraction > 1 {
		t.Fatalf("cluster_reuse_fraction = %g", up.Reuse.ClusterReuseFraction)
	}
	// Set of an existing edge reweights in place: same edge count, new key.
	if up.M != g.M() {
		t.Fatalf("updated graph m = %d, want %d", up.M, g.M())
	}

	// The new key solves by reference.
	b := make([]float64, g.N)
	for i := range b {
		b[i] = signOf(i)
	}
	var sol solveResponse
	if resp := postJSON(t, ts.URL+"/v2/solve", solveRequest{Key: up.Key, B: b}, &sol); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	if !sol.Converged {
		t.Fatalf("solve did not converge (relres %g)", sol.RelRes)
	}

	// Stats expose the incremental counters and the split latency track.
	var st statsResponse
	if resp, err := http.Get(ts.URL + "/v2/stats"); err != nil {
		t.Fatal(err)
	} else {
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	if st.IncrementalBuilds != 1 || st.ClustersReused == 0 || st.IncrementalLatencyCount != 1 {
		t.Fatalf("stats: incremental_builds=%d clusters_reused=%d incremental_latency_count=%d",
			st.IncrementalBuilds, st.ClustersReused, st.IncrementalLatencyCount)
	}

	// Error taxonomy: unknown base key → 404 unknown_key; empty delta and
	// absent-edge removal → 400/422.
	var e errorResponse
	if resp := postJSON(t, ts.URL+"/v2/update", updateRequest{
		Key: "g9-9-0000000000000000", Set: [][3]float64{{0, 1, 1}},
	}, &e); resp.StatusCode != http.StatusNotFound || e.Code != "unknown_key" {
		t.Fatalf("unknown key: status %d code %q", resp.StatusCode, e.Code)
	}
	if resp := postJSON(t, ts.URL+"/v2/update", updateRequest{Key: sp.Key}, &e); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty delta: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v2/update", updateRequest{
		Key: sp.Key, Remove: [][2]float64{{0, 999}},
	}, &e); resp.StatusCode == http.StatusOK {
		t.Fatal("removing an absent edge must fail")
	}
}

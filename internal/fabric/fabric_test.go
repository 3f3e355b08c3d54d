package fabric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gen"
	"repro/internal/shard"
	"repro/internal/sparsify"
)

// mapCache is a minimal shard.ClusterCache for worker-side caching tests.
type mapCache struct {
	mu sync.Mutex
	m  map[string][][2]int
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string][][2]int)} }

func (c *mapCache) GetCluster(key string) ([][2]int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.m[key]
	return p, ok
}

func (c *mapCache) AddCluster(key string, edges [][2]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = edges
}

// startWorker serves one fabric worker over httptest, optionally behind a
// middleware (nil = direct).
func startWorker(t *testing.T, cache shard.ClusterCache, wrap func(http.Handler) http.Handler) (*httptest.Server, *fabric.Worker) {
	t.Helper()
	w := fabric.NewWorker(cache, 2)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/cluster", w.ServeCluster)
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, w
}

// clusterReq builds one real dispatcher request: the first cluster of a
// 2-way plan over a grid (large enough not to be a tiny-cluster shortcut).
func clusterReq(t *testing.T) *shard.ClusterRequest {
	t.Helper()
	g := gen.Grid2D(16, 16, 2)
	plan, err := shard.NewPlan(context.Background(), g, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl := &plan.Clusters[0]
	if cl.Local.M() <= 32 {
		t.Fatalf("test cluster has %d edges; want > tiny-cluster threshold", cl.Local.M())
	}
	return &shard.ClusterRequest{
		Index:   0,
		Key:     "test-cluster-key",
		Cluster: cl,
		Opts:    sparsify.Options{Workers: 1, Seed: 11},
	}
}

// wantResult is the in-process ground truth for a request.
func wantResult(t *testing.T, req *shard.ClusterRequest) *shard.ClusterResult {
	t.Helper()
	res, err := shard.BuildCluster(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFleetBuildMatchesLocal is the fabric's core guarantee: a sharded
// build dispatched over a two-worker HTTP fleet is bit-for-bit the build
// the same configuration produces in-process — same sparsifier edges,
// same PCG iteration count — because per-cluster seeds and fingerprints
// travel with each request and float64 survives JSON exactly.
func TestFleetBuildMatchesLocal(t *testing.T) {
	g := gen.Grid2D(20, 20, 3)
	cfg := core.Config{
		ShardThreshold: 100,
		Shards:         4,
		Sparsify:       sparsify.Options{Seed: 5},
	}

	local, err := core.NewSparsifier(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	w1, _ := startWorker(t, newMapCache(), nil)
	w2, _ := startWorker(t, newMapCache(), nil)
	remote := fabric.NewRemote([]string{w1.URL, w2.URL}, fabric.Options{})
	fcfg := cfg
	fcfg.Dispatcher = remote
	fleet, err := core.NewSparsifier(context.Background(), g, fcfg)
	if err != nil {
		t.Fatal(err)
	}

	ls, fs := local.SparsifierGraph(), fleet.SparsifierGraph()
	if ls.M() != fs.M() {
		t.Fatalf("fleet sparsifier has %d edges, local %d", fs.M(), ls.M())
	}
	for i := range ls.Edges {
		if ls.Edges[i] != fs.Edges[i] {
			t.Fatalf("edge %d differs: local %+v, fleet %+v", i, ls.Edges[i], fs.Edges[i])
		}
	}
	st := fleet.ShardStats()
	if st == nil || st.ClustersRemote == 0 {
		t.Fatalf("fleet build reports no remote clusters: %+v", st)
	}
	if rs := remote.Stats(); rs.RemoteClusters != int64(st.ClustersRemote) || rs.FallbackLocal != 0 {
		t.Fatalf("dispatcher stats disagree: %+v vs build's %d remote", rs, st.ClustersRemote)
	}

	rng := rand.New(rand.NewSource(9))
	b := make([]float64, g.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	sl, err := local.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := fleet.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if sl.Iterations != sf.Iterations {
		t.Fatalf("PCG iterations differ: local %d, fleet %d", sl.Iterations, sf.Iterations)
	}
}

// TestRetryAfter5xx kills a worker's first response with a 500 and checks
// the dispatcher retries the attempt and still lands the correct result.
func TestRetryAfter5xx(t *testing.T) {
	var first atomic.Bool
	first.Store(true)
	ts, _ := startWorker(t, nil, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if first.CompareAndSwap(true, false) {
				http.Error(w, "transient worker fault", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	remote := fabric.NewRemote([]string{ts.URL}, fabric.Options{Backoff: 1})

	req := clusterReq(t)
	want := wantResult(t, req)
	got, err := remote.Dispatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Remote || !reflect.DeepEqual(got.Edges, want.Edges) {
		t.Fatalf("retried dispatch returned wrong result (remote=%v, %d edges, want %d)",
			got.Remote, len(got.Edges), len(want.Edges))
	}
	st := remote.Stats()
	if len(st.Workers) != 1 || st.Workers[0].Failed != 1 || st.Workers[0].Retried != 1 {
		t.Fatalf("expected 1 failure + 1 retry on the worker, got %+v", st.Workers)
	}
	if st.Workers[0].LastError == "" {
		t.Fatal("worker health lost the failure detail")
	}
	if st.RemoteClusters != 1 || st.FallbackLocal != 0 {
		t.Fatalf("dispatch should have succeeded remotely: %+v", st)
	}
}

// TestFleetDownFallsBackToLocal points the dispatcher at a dead address
// and checks the build degrades to in-process execution — correct result,
// degradation counted.
func TestFleetDownFallsBackToLocal(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from here on
	remote := fabric.NewRemote([]string{dead.URL}, fabric.Options{Retries: -1, Backoff: 1})

	req := clusterReq(t)
	want := wantResult(t, req)
	got, err := remote.Dispatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Remote || !reflect.DeepEqual(got.Edges, want.Edges) {
		t.Fatalf("fallback result wrong (remote=%v)", got.Remote)
	}
	st := remote.Stats()
	if st.FallbackLocal != 1 || st.RemoteClusters != 0 {
		t.Fatalf("degradation not recorded: %+v", st)
	}
	if len(st.Workers) != 1 || st.Workers[0].Failed == 0 {
		t.Fatalf("dead worker not marked failed: %+v", st.Workers)
	}
}

// TestMalformedResultRejected serves a syntactically valid response whose
// edges are not the cluster's, and checks the dispatcher refuses to stitch
// it in, falling back to the correct local build instead.
func TestMalformedResultRejected(t *testing.T) {
	bogus := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// Endpoint pair [0, 999999] exists in no cluster of the test graph.
		w.Write([]byte(`{"edges":[[0,999999]],"stats":{}}`))
	}))
	t.Cleanup(bogus.Close)
	remote := fabric.NewRemote([]string{bogus.URL}, fabric.Options{Retries: -1, Backoff: 1})

	req := clusterReq(t)
	want := wantResult(t, req)
	got, err := remote.Dispatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Remote || !reflect.DeepEqual(got.Edges, want.Edges) {
		t.Fatal("malformed remote result was not replaced by the local build")
	}
	st := remote.Stats()
	if st.FallbackLocal != 1 || st.Workers[0].Failed != 1 {
		t.Fatalf("malformed result not counted as a failure: %+v", st)
	}
}

// TestWorkerCacheHit dispatches the same cluster twice against one worker
// and checks the second answer comes from the worker's cluster cache.
func TestWorkerCacheHit(t *testing.T) {
	ts, w := startWorker(t, newMapCache(), nil)
	remote := fabric.NewRemote([]string{ts.URL}, fabric.Options{})

	req := clusterReq(t)
	first, err := remote.Dispatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := remote.Dispatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Edges, second.Edges) {
		t.Fatal("cached dispatch returned different edges")
	}
	if st := w.Stats(); st.Served != 2 || st.CacheHits != 1 {
		t.Fatalf("worker stats = %+v, want served=2 cache_hits=1", st)
	}
}

// TestWorkerRejectsMalformedPayloads drives the worker handler directly
// with broken bodies and checks the structured 400s: each counts one
// failure and caches nothing. The factor-job case is what an older
// coordinator with remote factors enabled sends (a "factor" block and no
// cluster section); its 400 is what makes that coordinator fall back to
// factorizing locally.
func TestWorkerRejectsMalformedPayloads(t *testing.T) {
	cache := newMapCache()
	ts, w := startWorker(t, cache, nil)
	for name, body := range map[string]string{
		"not json":        `{"key":`,
		"no vertices":     `{"key":"k","n":0,"vertices":[],"edges":[],"opts":{"method":0,"seed":1}}`,
		"vertex mismatch": `{"key":"k","n":3,"vertices":[0,1],"edges":[[0,1,1],[1,2,1]],"opts":{"method":0,"seed":1}}`,
		"float endpoint":  `{"key":"k","n":2,"vertices":[0,1],"edges":[[0,1.5,1]],"opts":{"method":0,"seed":1}}`,
		"factor job":      `{"key":"k","factor":{"n":2,"colptr":[0,2,4],"rowidx":[0,1,0,1],"val":[2,-1,-1,2]}}`,
	} {
		before := w.Stats().Failures
		resp, err := http.Post(ts.URL+"/v2/cluster", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: decoding error body: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Code != "invalid_request" {
			t.Fatalf("%s: status %d code %q, want 400 invalid_request", name, resp.StatusCode, e.Code)
		}
		if got := w.Stats().Failures - before; got != 1 {
			t.Fatalf("%s: counted %d failures, want 1", name, got)
		}
	}
	if st := w.Stats(); st.Served != 0 || len(cache.m) != 0 {
		t.Fatalf("rejected payloads served %d clusters and cached %d entries", st.Served, len(cache.m))
	}
}

// TestEmptyFleetDispatchesLocally checks the zero-worker Remote is a
// working dispatcher (configuration convenience: flipping the fleet off
// without changing call sites).
func TestEmptyFleetDispatchesLocally(t *testing.T) {
	remote := fabric.NewRemote(nil, fabric.Options{})
	req := clusterReq(t)
	want := wantResult(t, req)
	got, err := remote.Dispatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Remote || !reflect.DeepEqual(got.Edges, want.Edges) {
		t.Fatal("empty-fleet dispatch did not run the local build")
	}
	if st := remote.Stats(); st.FallbackLocal != 1 {
		t.Fatalf("empty-fleet dispatch not counted as fallback: %+v", st)
	}
}

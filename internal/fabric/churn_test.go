package fabric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/shard"
	"repro/internal/wire"
)

// startPeerWorker serves a peer-fetch-enabled worker with both fabric
// routes (build POST and the peer-side cache GET).
func startPeerWorker(t *testing.T) (*httptest.Server, *fabric.Worker) {
	t.Helper()
	w := fabric.NewWorkerWith(newMapCache(), 2, fabric.WorkerOptions{PeerFetch: true})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/cluster", w.ServeCluster)
	mux.HandleFunc("GET /v2/cluster/{key}", w.ServeClusterGet)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, w
}

// freshBuilds derives the number of from-scratch cluster builds a worker
// performed: everything served that was neither a local cache hit nor a
// peer fetch hit.
func freshBuilds(s fabric.WorkerStatsSnapshot) int64 {
	return s.Served - s.CacheHits - s.PeerHits
}

// TestPeerFetchOnMembershipChurn is the churn property test: against a
// three-worker fleet with peer fetch on, a leave event may only degrade
// the cache hit-rate for the keys the departed worker owned (the
// rendezvous invariant — every other key keeps its owner and its cache
// entry), and those moved keys are served by one-hop fetches from the
// previous owner instead of rebuilds. A re-join moves them back onto the
// original worker's still-warm cache. Across the whole churn sequence,
// no cluster is ever built twice.
func TestPeerFetchOnMembershipChurn(t *testing.T) {
	base := clusterReq(t)
	want := wantResult(t, base)

	servers := make([]*httptest.Server, 3)
	workers := make([]*fabric.Worker, 3)
	urls := make([]string, 3)
	for i := range servers {
		servers[i], workers[i] = startPeerWorker(t)
		urls[i] = servers[i].URL
	}
	remote := fabric.NewRemote(urls, fabric.Options{Retries: -1, Backoff: time.Millisecond})

	const nKeys = 24
	reqs := make([]*shard.ClusterRequest, nKeys)
	for i := range reqs {
		r := *base
		r.Key = fmt.Sprintf("churn-key-%02d", i)
		reqs[i] = &r
	}
	dispatchAll := func() {
		t.Helper()
		for _, r := range reqs {
			got, err := remote.Dispatch(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Edges, want.Edges) {
				t.Fatalf("key %s returned wrong edges", r.Key)
			}
		}
	}
	snapshot := func() []fabric.WorkerStatsSnapshot {
		out := make([]fabric.WorkerStatsSnapshot, len(workers))
		for i, w := range workers {
			out[i] = w.Stats()
		}
		return out
	}

	// Round 1: cold fleet — every key builds exactly once, on its owner.
	dispatchAll()
	r1 := snapshot()
	var built int64
	for _, s := range r1 {
		built += freshBuilds(s)
		if s.PeerFetches != 0 {
			t.Fatalf("cold round attempted peer fetches: %+v", s)
		}
	}
	if built != nKeys {
		t.Fatalf("cold round built %d clusters, want %d", built, nKeys)
	}
	movedKeys := freshBuilds(r1[2]) // everything worker 2 owns will move

	// Leave: drop worker 2 (its server stays up — a planned drain, or a
	// coordinator-side removal, leaves the process running).
	remote.SetWorkers(urls[:2])
	dispatchAll()
	r2 := snapshot()
	for i := 0; i < 2; i++ {
		if n := freshBuilds(r2[i]) - freshBuilds(r1[i]); n != 0 {
			t.Fatalf("worker %d rebuilt %d clusters after churn; peer fetch should have served them", i, n)
		}
	}
	// Rendezvous invariant: surviving workers' own keys still hit their
	// caches; only the departed worker's keys needed the peer hop.
	var cacheHits, peerHits int64
	for i := 0; i < 2; i++ {
		cacheHits += r2[i].CacheHits - r1[i].CacheHits
		peerHits += r2[i].PeerHits - r1[i].PeerHits
	}
	if cacheHits != nKeys-movedKeys {
		t.Fatalf("unmoved keys: %d cache hits, want %d", cacheHits, nKeys-movedKeys)
	}
	if peerHits != movedKeys {
		t.Fatalf("moved keys: %d peer hits, want %d", peerHits, movedKeys)
	}
	if served := r2[2].PeerServed; served != movedKeys {
		t.Fatalf("previous owner served %d peer fetches, want %d", served, movedKeys)
	}
	st := remote.Stats()
	if st.PeerFetches != movedKeys || st.PeerHits != movedKeys {
		t.Fatalf("coordinator peer accounting: fetches=%d hits=%d, want %d each",
			st.PeerFetches, st.PeerHits, movedKeys)
	}
	if st.MembershipEpoch != 2 {
		t.Fatalf("membership epoch = %d after one change, want 2", st.MembershipEpoch)
	}

	// Re-join: the moved keys return to worker 2, whose cache is still
	// warm from round 1 — hits all around, no fetches, no builds.
	remote.SetWorkers(urls)
	dispatchAll()
	r3 := snapshot()
	for i := range workers {
		if n := freshBuilds(r3[i]) - freshBuilds(r2[i]); n != 0 {
			t.Fatalf("worker %d rebuilt %d clusters after re-join", i, n)
		}
		if n := r3[i].PeerFetches - r2[i].PeerFetches; n != 0 {
			t.Fatalf("worker %d peer-fetched %d keys after re-join; its cache holds them", i, n)
		}
	}
	if st := remote.Stats(); st.MembershipEpoch != 3 {
		t.Fatalf("membership epoch = %d after two changes, want 3", st.MembershipEpoch)
	}
}

// postPayload drives a worker's POST /v2/cluster directly with a crafted
// payload, returning the decoded response.
func postPayload(t *testing.T, url string, p *fabric.ClusterPayload) *fabric.ClusterResponse {
	t.Helper()
	body, err := p.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v2/cluster", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker answered %d", resp.StatusCode)
	}
	var cr fabric.ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return &cr
}

// payloadFor hand-builds the wire payload of a request with peer-fetch
// metadata attached.
func payloadFor(req *shard.ClusterRequest, epoch int64, prevOwner string) *fabric.ClusterPayload {
	cl := req.Cluster
	return &fabric.ClusterPayload{
		Key:       req.Key,
		N:         cl.Local.N,
		Vertices:  cl.Vertices,
		Edges:     wire.Edges{List: cl.Local.Edges},
		Opts:      fabric.WireOptions{Seed: req.Opts.Seed},
		Epoch:     epoch,
		PrevOwner: prevOwner,
	}
}

// TestStalePeerNeverServesWrongKey: the fetch validates what it receives
// against its own payload, so a previous owner that answers with the
// wrong entry — a stale or confused peer under a lagging epoch — can
// waste the round trip but can never plant a wrong-key result. Each
// variant must end in PeerFetch="miss", a correct local build, and zero
// peer hits.
func TestStalePeerNeverServesWrongKey(t *testing.T) {
	req := clusterReq(t)
	req.Opts.Workers = 1
	want := wantResult(t, req)

	foreign := [][2]int{{0, 1 << 30}}
	cases := []struct {
		name string
		resp fabric.ClusterResponse
	}{
		// A peer echoing a different key: the entry belongs to some other
		// cluster that happens to live under the fetched URL.
		{"wrong key echo", fabric.ClusterResponse{Edges: want.Edges, Cached: true, Key: "some-other-key"}},
		// The right key but edges of a different cluster: exactly what a
		// stale epoch pointing at a reassigned owner could produce.
		{"foreign edges", fabric.ClusterResponse{Edges: foreign, Cached: true, Key: req.Key}},
		// Spanning-size violation: too few edges to be this cluster's
		// sparsifier.
		{"truncated entry", fabric.ClusterResponse{Edges: want.Edges[:1], Cached: true, Key: req.Key}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stale := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				rw.Header().Set("Content-Type", "application/json")
				json.NewEncoder(rw).Encode(&tc.resp)
			}))
			t.Cleanup(stale.Close)

			ts, w := startPeerWorker(t)
			cr := postPayload(t, ts.URL, payloadFor(req, 2, stale.URL))
			if cr.PeerFetch != "miss" {
				t.Fatalf("peer_fetch = %q, want miss", cr.PeerFetch)
			}
			if !reflect.DeepEqual(cr.Edges, want.Edges) {
				t.Fatal("worker did not fall through to a correct local build")
			}
			if st := w.Stats(); st.PeerHits != 0 || st.PeerFetches != 1 {
				t.Fatalf("stale fetch accounting: %+v", st)
			}
		})
	}
}

// TestPeerFetchHitAdoptsEntry is the positive single-hop case: the
// previous owner holds the key, the new owner fetches it, validates it,
// adopts it into its own cache, and reports the hit upstream.
func TestPeerFetchHitAdoptsEntry(t *testing.T) {
	req := clusterReq(t)
	req.Opts.Workers = 1
	want := wantResult(t, req)

	prevTS, prev := startPeerWorker(t)
	// Warm the previous owner the normal way.
	if cr := postPayload(t, prevTS.URL, payloadFor(req, 1, "")); len(cr.Edges) == 0 {
		t.Fatal("warming build returned no edges")
	}

	ts, w := startPeerWorker(t)
	cr := postPayload(t, ts.URL, payloadFor(req, 2, prevTS.URL))
	if cr.PeerFetch != "hit" || !cr.Cached {
		t.Fatalf("peer_fetch=%q cached=%v, want a cached hit", cr.PeerFetch, cr.Cached)
	}
	if !reflect.DeepEqual(cr.Edges, want.Edges) {
		t.Fatal("peer-fetched entry has wrong edges")
	}
	if st := w.Stats(); st.PeerFetches != 1 || st.PeerHits != 1 || freshBuilds(st) != 0 {
		t.Fatalf("fetching worker stats: %+v", st)
	}
	if st := prev.Stats(); st.PeerServed != 1 {
		t.Fatalf("previous owner served %d peer fetches, want 1", st.PeerServed)
	}
	// The adopted entry is now local: the same dispatch again is a plain
	// cache hit with no second fetch.
	cr = postPayload(t, ts.URL, payloadFor(req, 2, prevTS.URL))
	if cr.PeerFetch != "" || !cr.Cached {
		t.Fatalf("second dispatch: peer_fetch=%q cached=%v, want local hit", cr.PeerFetch, cr.Cached)
	}
	if st := w.Stats(); st.PeerFetches != 1 {
		t.Fatalf("adopted entry re-fetched: %+v", st)
	}
}

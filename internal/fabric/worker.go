package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/chol"
	"repro/internal/shard"
	"repro/internal/wire"
)

// maxClusterBody caps worker request bodies — one cluster, not a whole
// graph, so half the serving layer's whole-graph cap is generous.
const maxClusterBody = 32 << 20

// DefaultPeerTimeout bounds one peer cache fetch. A fetch is a cache
// read on the peer — milliseconds — so a short deadline keeps a dead
// previous owner from stalling the build longer than the rebuild it
// would avoid.
const DefaultPeerTimeout = 2 * time.Second

// WorkerOptions tunes optional worker behaviour; the zero value matches
// NewWorker's.
type WorkerOptions struct {
	// PeerFetch enables the one-hop peer cache fetch: on a cache miss
	// for a dispatch that carries previous-owner metadata (the
	// coordinator observed a membership change that moved this key), the
	// worker tries one GET /v2/cluster/{key} against the previous owner
	// before building. One hop, one attempt; any failure falls through
	// to the normal build.
	PeerFetch bool
	// PeerTimeout bounds the fetch (0 selects DefaultPeerTimeout).
	PeerTimeout time.Duration
	// Client overrides the HTTP client used for peer fetches (tests).
	Client *http.Client
}

// Worker executes cluster builds on behalf of remote coordinators: the
// handler behind `trsparsed -worker`'s POST /v2/cluster. Builds run on a
// bounded semaphore (a worker serves one coordinator's fan-out plus
// hedged duplicates from others; unbounded concurrency would thrash),
// and results are cached by cluster fingerprint when a cache is
// configured — rendezvous placement keys on the same fingerprint, so a
// rebuild of a mostly-unchanged graph lands its unchanged clusters on
// the workers that already hold them. The same handler serves factor
// jobs (ClusterPayload.Factor set): a deterministic sparse Cholesky of
// the shipped block, returned serialized.
type Worker struct {
	cache shard.ClusterCache // nil disables worker-side caching
	opts  WorkerOptions
	sem   chan struct{}

	served       atomic.Int64
	cacheHits    atomic.Int64
	failures     atomic.Int64
	factorsBuilt atomic.Int64
	peerFetches  atomic.Int64
	peerHits     atomic.Int64
	peerServed   atomic.Int64
}

// NewWorker creates a worker executing at most workers concurrent
// cluster builds (≤ 0 selects GOMAXPROCS) against the given cache (nil
// disables caching).
func NewWorker(cache shard.ClusterCache, workers int) *Worker {
	return NewWorkerWith(cache, workers, WorkerOptions{})
}

// NewWorkerWith is NewWorker with explicit options.
func NewWorkerWith(cache shard.ClusterCache, workers int, opts WorkerOptions) *Worker {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.PeerTimeout <= 0 {
		opts.PeerTimeout = DefaultPeerTimeout
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	return &Worker{cache: cache, opts: opts, sem: make(chan struct{}, workers)}
}

// WorkerStatsSnapshot is a worker's own telemetry (the coordinator keeps
// its view separately; see Remote.Stats).
type WorkerStatsSnapshot struct {
	Served    int64 `json:"clusters_served"`
	CacheHits int64 `json:"cluster_cache_hits"`
	Failures  int64 `json:"cluster_failures"`
	// FactorsBuilt counts factor jobs served (remote Schwarz blocks
	// factorized for a coordinator).
	FactorsBuilt int64 `json:"factors_built"`
	// PeerFetches counts peer cache fetches this worker attempted after
	// a membership change moved a key onto it; PeerHits the ones the
	// previous owner answered. PeerServed counts GET /v2/cluster/{key}
	// requests this worker answered from its cache for other workers.
	PeerFetches int64 `json:"peer_fetches"`
	PeerHits    int64 `json:"peer_hits"`
	PeerServed  int64 `json:"peer_served"`
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStatsSnapshot {
	return WorkerStatsSnapshot{
		Served:       w.served.Load(),
		CacheHits:    w.cacheHits.Load(),
		Failures:     w.failures.Load(),
		FactorsBuilt: w.factorsBuilt.Load(),
		PeerFetches:  w.peerFetches.Load(),
		PeerHits:     w.peerHits.Load(),
		PeerServed:   w.peerServed.Load(),
	}
}

// ServeCluster is the POST /v2/cluster handler: decode one payload and
// serve it — a factor job through the factorization path, a cluster
// build from the local cache on a fingerprint hit, via a one-hop peer
// fetch when membership movement metadata is present, or by building it
// (bounded by the worker semaphore, canceled when the coordinator gives
// up — a hedge loser stops burning the worker's CPU) and caching the
// result.
func (w *Worker) ServeCluster(rw http.ResponseWriter, r *http.Request) {
	var p ClusterPayload
	if err := readPayload(rw, r, &p); err != nil {
		w.failures.Add(1)
		writeWorkerErr(rw, http.StatusBadRequest, "invalid_request", fmt.Errorf("decoding cluster payload: %w", err))
		return
	}
	if p.Factor != nil {
		w.serveFactor(rw, r, &p)
		return
	}
	req, err := p.clusterRequest()
	if err != nil {
		w.failures.Add(1)
		writeWorkerErr(rw, http.StatusBadRequest, "invalid_request", err)
		return
	}

	if w.cache != nil && p.Key != "" {
		if pairs, ok := w.cache.GetCluster(p.Key); ok {
			w.served.Add(1)
			w.cacheHits.Add(1)
			writeWorkerJSON(rw, http.StatusOK, ClusterResponse{Edges: pairs, Cached: true})
			return
		}
	}

	ctx := r.Context()
	peerFetch := ""
	if w.opts.PeerFetch && w.cache != nil && p.Key != "" && p.PrevOwner != "" {
		if pairs, ok := w.peerFetch(ctx, &p, req); ok {
			w.cache.AddCluster(p.Key, pairs)
			w.served.Add(1)
			writeWorkerJSON(rw, http.StatusOK, ClusterResponse{Edges: pairs, Cached: true, PeerFetch: "hit"})
			return
		}
		peerFetch = "miss"
	}

	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-ctx.Done():
		w.failures.Add(1)
		writeWorkerErr(rw, http.StatusServiceUnavailable, "canceled", ctx.Err())
		return
	}

	res, err := shard.BuildCluster(ctx, req)
	if err != nil {
		w.failures.Add(1)
		status, code := http.StatusUnprocessableEntity, "invalid_graph"
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status, code = http.StatusServiceUnavailable, "canceled"
		}
		writeWorkerErr(rw, status, code, err)
		return
	}
	if w.cache != nil && p.Key != "" {
		w.cache.AddCluster(p.Key, res.Edges)
	}
	w.served.Add(1)
	writeWorkerJSON(rw, http.StatusOK, ClusterResponse{Edges: res.Edges, Stats: res.Stats, PeerFetch: peerFetch})
}

// serveFactor handles a factorization job: reassemble the shipped block,
// run the deterministic sparse Cholesky under the worker semaphore, and
// return the serialized factor. Factors are not cached worker-side — the
// coordinator's FactorCache already deduplicates across rebuilds, and a
// block's values change whenever neighboring clusters' stitch decisions
// do, so the fingerprint alone cannot prove a cached factor current.
func (w *Worker) serveFactor(rw http.ResponseWriter, r *http.Request, p *ClusterPayload) {
	sub, err := p.Factor.csc()
	if err != nil {
		w.failures.Add(1)
		writeWorkerErr(rw, http.StatusBadRequest, "invalid_request", err)
		return
	}
	ctx := r.Context()
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-ctx.Done():
		w.failures.Add(1)
		writeWorkerErr(rw, http.StatusServiceUnavailable, "canceled", ctx.Err())
		return
	}
	f, err := chol.New(sub, chol.Options{})
	if err != nil {
		w.failures.Add(1)
		status, code := http.StatusUnprocessableEntity, "not_spd"
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status, code = http.StatusServiceUnavailable, "canceled"
		}
		writeWorkerErr(rw, status, code, err)
		return
	}
	w.factorsBuilt.Add(1)
	writeWorkerJSON(rw, http.StatusOK, ClusterResponse{Key: p.Key, Factor: wireFactorOf(f)})
}

// peerFetch tries the one-hop cache fetch against the previous owner the
// coordinator named. The fetched entry is validated as strictly as the
// coordinator validates a build result — Key echo plus every edge checked
// against this payload's own cluster — so a stale previous-owner epoch
// (or a confused peer) can cost one wasted round trip but can never
// inject a wrong-key entry into the cache.
func (w *Worker) peerFetch(ctx context.Context, p *ClusterPayload, req *shard.ClusterRequest) ([][2]int, bool) {
	w.peerFetches.Add(1)
	fctx, cancel := context.WithTimeout(ctx, w.opts.PeerTimeout)
	defer cancel()
	u := p.PrevOwner + "/v2/cluster/" + url.PathEscape(p.Key)
	hreq, err := http.NewRequestWithContext(fctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, false
	}
	resp, err := w.opts.Client.Do(hreq)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	var cr ClusterResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxClusterBody)).Decode(&cr); err != nil {
		return nil, false
	}
	if cr.Key != p.Key {
		return nil, false
	}
	if err := validateResult(req, &cr, validPairs(req.Cluster)); err != nil {
		return nil, false
	}
	w.peerHits.Add(1)
	return cr.Edges, true
}

// ServeClusterGet is the GET /v2/cluster/{key} handler: the peer side of
// the fetch. It only reads the cache — it never builds and never fetches
// onward, so fetch chains and loops are impossible by construction (a
// worker asking itself just earns one 404).
func (w *Worker) ServeClusterGet(rw http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if key == "" || w.cache == nil {
		writeWorkerErr(rw, http.StatusNotFound, "not_found", errors.New("no cached cluster"))
		return
	}
	pairs, ok := w.cache.GetCluster(key)
	if !ok {
		writeWorkerErr(rw, http.StatusNotFound, "not_found", fmt.Errorf("cluster %s not cached", key))
		return
	}
	w.peerServed.Add(1)
	writeWorkerJSON(rw, http.StatusOK, ClusterResponse{Edges: pairs, Cached: true, Key: key})
}

// readPayload reads a POST /v2/cluster body (at most maxClusterBody)
// into a pooled buffer and decodes it.
func readPayload(rw http.ResponseWriter, r *http.Request, p *ClusterPayload) error {
	body, err := wire.ReadBody(http.MaxBytesReader(rw, r.Body, maxClusterBody), r.ContentLength, maxClusterBody)
	if err != nil {
		return err
	}
	defer body.Release()
	return decodePayload(body.B, p)
}

func writeWorkerJSON(rw http.ResponseWriter, status int, v any) {
	e := wire.NewEncoder()
	defer e.Release()
	if cr, ok := v.(ClusterResponse); ok {
		cr.appendJSON(e)
	} else {
		e.JSON(v)
	}
	if e.Err() != nil {
		status = http.StatusInternalServerError
		e.Reset()
		e.Raw(`{"error":"unencodable response","code":"internal"}`)
	}
	e.Raw("\n")
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	rw.Write(e.Bytes())
}

func writeWorkerErr(rw http.ResponseWriter, status int, code string, err error) {
	writeWorkerJSON(rw, status, errorResponse{Error: err.Error(), Code: code})
}

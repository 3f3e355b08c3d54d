package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	trsparse "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/sparsify"
	"repro/internal/wire"
)

// maxBodyBytes caps request bodies; a 64 MiB Matrix Market file covers
// every SuiteSparse case the paper evaluates.
const maxBodyBytes = 64 << 20

// server wires the sparsification engine to the HTTP surface.
type server struct {
	eng   *engine.Engine
	start time.Time
}

func newServer(eng *engine.Engine) *server {
	return &server{eng: eng, start: time.Now()}
}

// handler builds the route table: the engine served under /v2/*, with
// per-request deadlines (?timeout_ms=) and structured error codes.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/sparsify", s.handleSparsify)
	mux.HandleFunc("POST /v2/update", s.handleUpdate)
	mux.HandleFunc("POST /v2/solve", s.handleSolve)
	mux.HandleFunc("POST /v2/partition", s.handlePartition)
	mux.HandleFunc("POST /v2/stream", s.handleStreamOpen)
	mux.HandleFunc("POST /v2/stream/{id}", s.handleStreamPush)
	mux.HandleFunc("GET /v2/stream/{id}", s.handleStreamStats)
	mux.HandleFunc("DELETE /v2/stream/{id}", s.handleStreamClose)
	mux.HandleFunc("GET /v2/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// requestCtx derives the handler context: the client's disconnect context
// plus an optional per-request deadline from ?timeout_ms=. Invalid or
// non-positive values are rejected by the caller via the returned error.
func requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	raw := r.URL.Query().Get("timeout_ms")
	if raw == "" {
		return ctx, func() {}, nil
	}
	ms, err := strconv.ParseFloat(raw, 64)
	if err != nil || ms <= 0 || math.IsNaN(ms) || math.IsInf(ms, 0) {
		return nil, nil, fmt.Errorf("invalid timeout_ms %q (want a positive, finite number of milliseconds)", raw)
	}
	// Clamp absurd deadlines instead of letting the float→Duration
	// conversion overflow int64 into an already-expired context; anything
	// past a day is "no effective deadline" for this service.
	const maxTimeoutMS = 24 * 60 * 60 * 1000
	if ms > maxTimeoutMS {
		ms = maxTimeoutMS
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(ms*float64(time.Millisecond)))
	return ctx, cancel, nil
}

// graphBody is an inline graph: vertex count plus [u, v, w] triples.
type graphBody struct {
	N     int
	Edges wire.Edges
}

func (p *graphBody) member(d *wire.Decoder, key []byte) error {
	switch {
	case wire.Key(key, "n"):
		return d.Int(&p.N)
	case wire.Key(key, "edges"):
		return d.Edges(&p.Edges, 3)
	}
	return d.Skip()
}

func (p *graphBody) toGraph() (*graph.Graph, error) {
	if p == nil {
		return nil, errors.New("missing graph")
	}
	if p.N < 1 {
		return nil, fmt.Errorf("graph needs at least one vertex, got n=%d", p.N)
	}
	// Sparsification needs a connected graph, which takes at least n-1
	// edges; rejecting larger n here keeps a tiny request body from
	// driving O(n) adjacency allocations with an inflated vertex count.
	if p.N > len(p.Edges.List)+1 {
		return nil, fmt.Errorf("n=%d cannot be connected by %d edges", p.N, len(p.Edges.List))
	}
	if err := p.Edges.Check("edge"); err != nil {
		return nil, err
	}
	return graph.New(p.N, p.Edges.List)
}

// sparsifyBody is the JSON form of a /v2/sparsify request.
type sparsifyBody struct {
	Graph *graphBody
}

func (b *sparsifyBody) member(d *wire.Decoder, key []byte) error {
	if wire.Key(key, "graph") {
		return wire.Pointer(d, &b.Graph, (*graphBody).member)
	}
	return d.Skip()
}

// decodeJSON decodes a whole JSON request body with the wire codec,
// calling member for each top-level key.
func decodeJSON(data []byte, member func(d *wire.Decoder, key []byte) error) error {
	d := wire.NewDecoder(data)
	if err := d.Decode(func(key []byte) error { return member(d, key) }); err != nil {
		return fmt.Errorf("decoding JSON body: %w", err)
	}
	return nil
}

// readBody reads the request body (at most maxBodyBytes) into a pooled
// buffer.
func readBody(w http.ResponseWriter, r *http.Request) (*wire.Buffer, error) {
	body, err := wire.ReadBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength, maxBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("decoding JSON body: %w", err)
	}
	return body, nil
}

// readJSON reads the request body with readBody and decodes it with
// decodeJSON.
func readJSON(w http.ResponseWriter, r *http.Request, member func(d *wire.Decoder, key []byte) error) error {
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	defer body.Release()
	return decodeJSON(body.B, member)
}

// shardInfo is the response-side summary of a sharded build (or of the
// expander guard's decision to abandon one).
type shardInfo struct {
	Shards         int     `json:"shards"`
	CutEdges       int     `json:"cut_edges"`
	CutFraction    float64 `json:"cut_fraction"`
	CutRetained    int     `json:"cut_retained"`
	CutRecovered   int     `json:"cut_recovered"`
	FallbackSplits int     `json:"fallback_splits"`
	// Abandoned reports that the plan's cut fraction exceeded the guard
	// ceiling and the build fell back to the monolithic path.
	Abandoned bool `json:"abandoned,omitempty"`
}

// precondInfo is the response-side summary of how the artifact's
// preconditioner was built.
type precondInfo struct {
	Kind      string  `json:"kind"`
	FactorNNZ int64   `json:"factor_nnz"`
	MemBytes  int64   `json:"mem_bytes"`
	BuildMS   float64 `json:"build_ms"`
}

// precondInfoOf extracts the preconditioner summary from an artifact.
func precondInfoOf(art *engine.Artifact) *precondInfo {
	ps := art.Handle.PrecondStats()
	if ps == nil {
		return nil
	}
	return &precondInfo{
		Kind:      ps.Kind,
		FactorNNZ: ps.FactorNNZ,
		MemBytes:  ps.MemBytes,
		BuildMS:   float64(ps.BuildTime) / float64(time.Millisecond),
	}
}

// sparsifyReply is the /v2/sparsify response. Its JSON keys, in order:
// key, n, m, sparsifier_edges (as [u,v,w] triples; omitted when empty),
// sparsifier_edge_count, cached, build_ms, sharded and precond (both
// omitted when nil).
type sparsifyReply struct {
	Key             string
	N               int
	M               int
	SparsifierEdges []graph.Edge
	// RenderedEdges, when set, is SparsifierEdges already rendered
	// (Artifact.RenderedEdges) and is appended as it is.
	RenderedEdges []byte
	EdgeCount     int
	Cached        bool
	BuildMS       float64
	// Sharded is non-nil when the artifact was built through the
	// partition-parallel pipeline (?shards=/?shard_threshold=, the
	// server's -shard-threshold default, or admission above
	// -max-vertices).
	Sharded *shardInfo
	// Precond reports how the artifact's preconditioner was built.
	Precond *precondInfo
}

func (r *sparsifyReply) appendJSON(e *wire.Encoder) {
	e.Raw(`{"key":`)
	e.String(r.Key)
	e.Raw(`,"n":`)
	e.Int(r.N)
	e.Raw(`,"m":`)
	e.Int(r.M)
	if len(r.SparsifierEdges) > 0 {
		e.Raw(`,"sparsifier_edges":`)
		if r.RenderedEdges != nil {
			e.RawBytes(r.RenderedEdges)
		} else {
			e.Edges(r.SparsifierEdges)
		}
	}
	e.Raw(`,"sparsifier_edge_count":`)
	e.Int(r.EdgeCount)
	e.Raw(`,"cached":`)
	e.Bool(r.Cached)
	e.Raw(`,"build_ms":`)
	e.Float(r.BuildMS)
	appendInfo(e, r.Sharded, r.Precond)
	e.Raw(`}`)
}

// appendInfo appends the optional sharded and precond blocks.
func appendInfo(e *wire.Encoder, sharded *shardInfo, pc *precondInfo) {
	if sharded != nil {
		e.Raw(`,"sharded":`)
		e.JSON(sharded)
	}
	if pc != nil {
		e.Raw(`,"precond":`)
		e.JSON(pc)
	}
}

// buildOptsFrom parses the per-request build overrides: ?shards=K,
// ?shard_threshold=N (non-negative integers; 0 inherits the server
// default) and ?method=trace|grass|fegrass|er (absent inherits the server
// default). Any other parameter is ignored.
func buildOptsFrom(r *http.Request) (engine.BuildOpts, error) {
	var bo engine.BuildOpts
	for _, p := range []struct {
		name string
		dst  *int
	}{
		{"shards", &bo.Shards},
		{"shard_threshold", &bo.ShardThreshold},
	} {
		raw := r.URL.Query().Get(p.name)
		if raw == "" {
			continue
		}
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			return bo, fmt.Errorf("invalid %s %q (want a non-negative integer)", p.name, raw)
		}
		*p.dst = v
	}
	if raw := r.URL.Query().Get("method"); raw != "" {
		m, err := sparsify.ParseMethod(raw)
		if err != nil {
			return bo, fmt.Errorf("invalid method %q (want trace, grass, fegrass, or er)", raw)
		}
		bo.Method = &m
	}
	return bo, nil
}

// shardInfoOf extracts the response summary from a (possibly sharded)
// artifact.
func shardInfoOf(art *engine.Artifact) *shardInfo {
	st := art.Handle.ShardStats()
	if st == nil {
		return nil
	}
	return &shardInfo{
		Shards:         st.Shards,
		CutEdges:       st.CutEdges,
		CutFraction:    st.CutFraction,
		CutRetained:    st.CutRetained,
		CutRecovered:   st.CutRecovered,
		FallbackSplits: st.FallbackSplits,
		Abandoned:      st.Abandoned,
	}
}

// isMatrixMarket reports whether the request body is a Matrix Market file
// rather than JSON, judged by Content-Type (text/* or
// application/x-matrix-market) or an explicit ?format=mm.
func isMatrixMarket(r *http.Request) bool {
	if r.URL.Query().Get("format") == "mm" {
		return true
	}
	ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil {
		return false
	}
	return ct == "application/x-matrix-market" || strings.HasPrefix(ct, "text/")
}

// readSparsify reads a sparsify request body: JSON (inline edge list) or
// a raw Matrix Market upload. A JSON body is hashed with the build
// options first, and when its digest is aliased to a resident artifact
// that artifact comes back and the body is never decoded. Otherwise the
// decoded graph comes back, with the digest to alias (nil for Matrix
// Market) once the graph's artifact is known.
func (s *server) readSparsify(w http.ResponseWriter, r *http.Request, bo engine.BuildOpts) (*engine.Artifact, *graph.Graph, *engine.Digest, error) {
	if isMatrixMarket(r) {
		g, err := trsparse.ReadMatrixMarketGraph(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		return nil, g, nil, err
	}
	body, err := readBody(w, r)
	if err != nil {
		return nil, nil, nil, err
	}
	d := engine.BodyDigest(bo, body.B)
	if art, ok := s.eng.LookupDigest(d); ok {
		body.Release()
		return art, nil, nil, nil
	}
	var req sparsifyBody
	err = decodeJSON(body.B, req.member)
	body.Release()
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := req.Graph.toGraph()
	return nil, g, &d, err
}

func (s *server) handleSparsify(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	bo, err := buildOptsFrom(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	art, g, digest, err := s.readSparsify(w, r, bo)
	if err != nil {
		writeErr(w, requestStatus(err), err)
		return
	}
	cached := art != nil
	if art == nil {
		if art, cached, err = s.eng.SparsifyWith(ctx, g, bo); err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		if digest != nil {
			s.eng.NoteDigest(*digest, art.Key)
		}
	}
	resp := sparsifyReply{
		Key:       art.Key,
		N:         art.Fingerprint.N,
		M:         art.Fingerprint.M,
		EdgeCount: art.SparsifierGraph().M(),
		Cached:    cached,
		BuildMS:   float64(art.BuildTime) / float64(time.Millisecond),
		Sharded:   shardInfoOf(art),
		Precond:   precondInfoOf(art),
	}
	// ?edges=false skips materializing the sparsifier edge list — for
	// clients that only want the key for later /v2/solve calls, rendering
	// millions of [u,v,w] triples per request is pure memory amplification.
	if v := r.URL.Query().Get("edges"); v != "false" && v != "0" {
		resp.SparsifierEdges = art.SparsifierGraph().Edges
		// A cache hit appends the edges the artifact keeps rendered
		// (rendered by its first hit); a cold build renders them once
		// and keeps nothing. Should rendering fail, the encoder renders
		// SparsifierEdges itself and reports the failure.
		if cached {
			resp.RenderedEdges, _ = art.RenderedEdges()
		}
	}
	writeJSON(w, http.StatusOK, &resp)
}

// deltaBody is an edge delta against a cached base artifact (/v2/update)
// or a stream session (/v2/stream/{id}): set adds or reweights edges
// ([u, v, w] triples), remove deletes them ([u, v] pairs). The vertex
// set is fixed.
type deltaBody struct {
	Key    string
	Set    wire.Edges
	Remove wire.Edges
}

func (b *deltaBody) member(d *wire.Decoder, key []byte) error {
	switch {
	case wire.Key(key, "key"):
		return d.String(&b.Key)
	case wire.Key(key, "set"):
		return d.Edges(&b.Set, 3)
	case wire.Key(key, "remove"):
		return d.Edges(&b.Remove, 2)
	}
	return d.Skip()
}

func (b *deltaBody) toDelta() (graph.Delta, error) {
	var d graph.Delta
	if err := b.Set.Check("set"); err != nil {
		return d, err
	}
	if err := b.Remove.Check("remove"); err != nil {
		return d, err
	}
	if len(b.Set.List) > 0 {
		d.Set = b.Set.List
	}
	for _, e := range b.Remove.List {
		d.Remove = append(d.Remove, [2]int{e.U, e.V})
	}
	return d, nil
}

// reuseInfo is the response-side summary of what an incremental rebuild
// avoided: which fraction of the plan's clusters adopted their cached
// sparsifier verbatim.
type reuseInfo struct {
	// Incremental is false when the rebuild fell back to a full build
	// (monolithic base, rebalance guard replan, or abandoned plan).
	Incremental          bool    `json:"incremental"`
	Clusters             int     `json:"clusters"`
	ClustersReused       int     `json:"clusters_reused"`
	ClusterReuseFraction float64 `json:"cluster_reuse_fraction"`
	// FactorsReused is 0 on every build: every handle carries the
	// monolithic factor. Kept for perfbench/replay.go until ROADMAP item
	// 11.
	FactorsReused int `json:"factors_reused"`
}

func reuseInfoOf(art *engine.Artifact) *reuseInfo {
	st := art.Handle.ShardStats()
	if st == nil {
		return &reuseInfo{}
	}
	ri := &reuseInfo{
		Incremental:    st.Incremental,
		Clusters:       st.Shards,
		ClustersReused: st.ClustersReused,
	}
	if st.Shards > 0 {
		ri.ClusterReuseFraction = float64(st.ClustersReused) / float64(st.Shards)
	}
	if ps := art.Handle.PrecondStats(); ps != nil {
		ri.FactorsReused = ps.FactorsReused
	}
	return ri
}

type updateResponse struct {
	// Key identifies the NEW artifact (the updated graph's fingerprint);
	// BaseKey echoes the artifact the delta was applied to.
	Key       string       `json:"key"`
	BaseKey   string       `json:"base_key"`
	N         int          `json:"n"`
	M         int          `json:"m"`
	EdgeCount int          `json:"sparsifier_edge_count"`
	Cached    bool         `json:"cached"`
	BuildMS   float64      `json:"build_ms"`
	Reuse     *reuseInfo   `json:"reuse"`
	Sharded   *shardInfo   `json:"sharded,omitempty"`
	Precond   *precondInfo `json:"precond,omitempty"`
}

// handleUpdate serves the incremental rebuild path: POST a base artifact
// key plus an edge delta, get back a new artifact for the updated graph
// that reused every cluster the delta did not touch. The new artifact
// replaces any whole-graph cache entry under the same key (see
// MIGRATION.md).
func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	var req deltaBody
	if err := readJSON(w, r, req.member); err != nil {
		writeErr(w, requestStatus(err), err)
		return
	}
	if req.Key == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing base artifact key"))
		return
	}
	d, err := req.toDelta()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if d.Empty() {
		writeErr(w, http.StatusBadRequest, errors.New("empty delta: pass set and/or remove"))
		return
	}
	art, cached, err := s.eng.Update(ctx, req.Key, d)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{
		Key:       art.Key,
		BaseKey:   req.Key,
		N:         art.Fingerprint.N,
		M:         art.Fingerprint.M,
		EdgeCount: art.SparsifierGraph().M(),
		Cached:    cached,
		BuildMS:   float64(art.BuildTime) / float64(time.Millisecond),
		Reuse:     reuseInfoOf(art),
		Sharded:   shardInfoOf(art),
		Precond:   precondInfoOf(art),
	})
}

// solveBody is the JSON form of a /v2/solve request.
type solveBody struct {
	// Key references an artifact from a previous /v2/sparsify response;
	// alternatively pass the graph inline.
	Key   string
	Graph *graphBody
	B     []float64
	// Rhs is the batched form: an array of right-hand-side vectors solved
	// together as one block solve (one matrix sweep and one
	// preconditioner apply per iteration serve every column). Exactly one
	// of B and Rhs must be set; every Rhs column must have the same
	// length.
	Rhs [][]float64
	Tol float64
}

func (b *solveBody) member(d *wire.Decoder, key []byte) error {
	switch {
	case wire.Key(key, "key"):
		return d.String(&b.Key)
	case wire.Key(key, "graph"):
		return wire.Pointer(d, &b.Graph, (*graphBody).member)
	case wire.Key(key, "b"):
		return d.Floats(&b.B)
	case wire.Key(key, "rhs"):
		return d.FloatRows(&b.Rhs)
	case wire.Key(key, "tol"):
		return d.Float(&b.Tol)
	}
	return d.Skip()
}

// solveReply answers a single-rhs solve. Its JSON keys, in order: key,
// x, iterations, relres, converged, cached, precond (omitted when nil).
type solveReply struct {
	Key        string
	X          []float64
	Iterations int
	RelRes     float64
	Converged  bool
	Cached     bool
	// Precond reports the preconditioner the solve ran through.
	Precond *precondInfo
}

func (r *solveReply) appendJSON(e *wire.Encoder) {
	e.Raw(`{"key":`)
	e.String(r.Key)
	e.Raw(`,"x":`)
	e.Floats(r.X)
	e.Raw(`,"iterations":`)
	e.Int(r.Iterations)
	e.Raw(`,"relres":`)
	e.Float(r.RelRes)
	e.Raw(`,"converged":`)
	e.Bool(r.Converged)
	e.Raw(`,"cached":`)
	e.Bool(r.Cached)
	appendInfo(e, nil, r.Precond)
	e.Raw(`}`)
}

// solveColumn is one right-hand side's outcome in a batched solve
// response: its solution plus its own convergence record (block PCG
// converges and deflates columns independently).
type solveColumn struct {
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	RelRes     float64   `json:"relres"`
	Converged  bool      `json:"converged"`
}

// solveBatchReply answers the batched request form (rhs array). Its
// JSON keys, in order: key, results (one solveColumn object each),
// cached, precond (omitted when nil).
type solveBatchReply struct {
	Key     string
	Results []solveColumn
	Cached  bool
	Precond *precondInfo
}

func (r *solveBatchReply) appendJSON(e *wire.Encoder) {
	e.Raw(`{"key":`)
	e.String(r.Key)
	e.Raw(`,"results":`)
	if r.Results == nil {
		e.Raw(`null`)
	} else {
		e.Raw(`[`)
		for i := range r.Results {
			c := &r.Results[i]
			if i > 0 {
				e.Raw(`,`)
			}
			e.Raw(`{"x":`)
			e.Floats(c.X)
			e.Raw(`,"iterations":`)
			e.Int(c.Iterations)
			e.Raw(`,"relres":`)
			e.Float(c.RelRes)
			e.Raw(`,"converged":`)
			e.Bool(c.Converged)
			e.Raw(`}`)
		}
		e.Raw(`]`)
	}
	e.Raw(`,"cached":`)
	e.Bool(r.Cached)
	appendInfo(e, nil, r.Precond)
	e.Raw(`}`)
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	bo, err := buildOptsFrom(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var req solveBody
	if err := readJSON(w, r, req.member); err != nil {
		writeErr(w, requestStatus(err), err)
		return
	}
	if len(req.B) > 0 && len(req.Rhs) > 0 {
		writeErr(w, http.StatusBadRequest, errors.New("pass either b (one rhs) or rhs (a batch), not both"))
		return
	}
	if len(req.B) == 0 && len(req.Rhs) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("missing right-hand side: pass b (one vector) or rhs (an array of vectors)"))
		return
	}
	// Ragged batches are a malformed request, rejected here with the
	// machine-readable invalid_request code before any engine work: the
	// engine's own dimension check would blame the artifact instead.
	for i, col := range req.Rhs {
		if len(col) != len(req.Rhs[0]) {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("ragged rhs batch: column %d has length %d, column 0 has %d", i, len(col), len(req.Rhs[0])))
			return
		}
	}
	if len(req.Rhs) > 0 && len(req.Rhs[0]) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("rhs columns are empty"))
		return
	}

	var art *engine.Artifact
	cached := false
	switch {
	case req.Key != "":
		var ok bool
		if art, ok = s.eng.Lookup(req.Key); !ok {
			writeErr(w, http.StatusNotFound,
				fmt.Errorf("no cached artifact for key %q (evicted or never built); re-POST /v2/sparsify", req.Key))
			return
		}
		cached = true
	case req.Graph != nil:
		g, err := req.Graph.toGraph()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		// Reject a mis-sized rhs before paying for sparsification and
		// factorization (the engine re-checks for the by-key path).
		n := len(req.B)
		if len(req.Rhs) > 0 {
			n = len(req.Rhs[0])
		}
		if n != g.N {
			writeErr(w, http.StatusBadRequest, fmt.Errorf(
				"rhs has length %d, graph has %d vertices (%w)", n, g.N, core.ErrDimension))
			return
		}
		if art, cached, err = s.eng.SparsifyWith(ctx, g, bo); err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
	default:
		writeErr(w, http.StatusBadRequest, errors.New("pass either key or graph"))
		return
	}

	if len(req.Rhs) > 0 {
		results, err := s.eng.SolveBatchArtifact(ctx, art, req.Rhs, req.Tol)
		if err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		cols := make([]solveColumn, len(results))
		for i, r := range results {
			cols[i] = solveColumn{X: r.X, Iterations: r.Iterations, RelRes: r.RelRes, Converged: r.Converged}
		}
		writeJSON(w, http.StatusOK, &solveBatchReply{
			Key:     art.Key,
			Results: cols,
			Cached:  cached,
			Precond: precondInfoOf(art),
		})
		return
	}

	res, err := s.eng.SolveArtifact(ctx, art, req.B, req.Tol)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, &solveReply{
		Key:        art.Key,
		X:          res.X,
		Iterations: res.Iterations,
		RelRes:     res.RelRes,
		Converged:  res.Converged,
		Cached:     cached,
		Precond:    precondInfoOf(art),
	})
}

// partitionBody is the JSON form of a /v2/partition request.
type partitionBody struct {
	// Key references an artifact from a previous /v2/sparsify response;
	// alternatively pass the graph inline.
	Key   string
	Graph *graphBody
}

func (b *partitionBody) member(d *wire.Decoder, key []byte) error {
	switch {
	case wire.Key(key, "key"):
		return d.String(&b.Key)
	case wire.Key(key, "graph"):
		return wire.Pointer(d, &b.Graph, (*graphBody).member)
	}
	return d.Skip()
}

// partitionReply answers /v2/partition: {"key":…,"partition":[…]}.
type partitionReply struct {
	Key       string
	Partition []int
}

func (r *partitionReply) appendJSON(e *wire.Encoder) {
	e.Raw(`{"key":`)
	e.String(r.Key)
	e.Raw(`,"partition":`)
	e.Ints(r.Partition)
	e.Raw(`}`)
}

// handlePartition serves the paper's §4.3 application — a balanced
// spectral bipartition via the sparsifier-preconditioned Fiedler vector —
// through the same cached artifacts the solve path uses. An inline graph
// is built with the same per-request overrides as /v2/sparsify and
// /v2/solve (?method=, ?shards=, ?shard_threshold=).
func (s *server) handlePartition(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	bo, err := buildOptsFrom(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var req partitionBody
	if err := readJSON(w, r, req.member); err != nil {
		writeErr(w, requestStatus(err), err)
		return
	}
	var art *engine.Artifact
	switch {
	case req.Key != "":
		var ok bool
		if art, ok = s.eng.Lookup(req.Key); !ok {
			writeErr(w, http.StatusNotFound,
				fmt.Errorf("no cached artifact for key %q (evicted or never built); re-POST /v2/sparsify", req.Key))
			return
		}
	case req.Graph != nil:
		g, err := req.Graph.toGraph()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if art, _, err = s.eng.SparsifyWith(ctx, g, bo); err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
	default:
		writeErr(w, http.StatusBadRequest, errors.New("pass either key or graph"))
		return
	}
	part, err := s.eng.PartitionArtifact(ctx, art)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, &partitionReply{Key: art.Key, Partition: part})
}

type statsResponse struct {
	engine.Stats
	HitRate       float64 `json:"cache_hit_rate"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	// CoalesceWindowMS echoes the configured -coalesce-window (0 when
	// request coalescing is disabled), so operators reading batch_p50
	// know what window produced it.
	CoalesceWindowMS float64 `json:"coalesce_window_ms"`
	// Streams is the per-session detail behind the aggregate stream_*
	// counters; absent when no sessions are open.
	Streams []engine.StreamStats `json:"streams,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	writeJSON(w, http.StatusOK, statsResponse{
		Stats:            st,
		HitRate:          st.HitRate(),
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Workers:          s.eng.Options().Workers,
		CoalesceWindowMS: float64(s.eng.Options().CoalesceWindow) / float64(time.Millisecond),
		Streams:          s.eng.StreamStats(),
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// classify maps an engine or library error to its (HTTP status,
// machine-readable code) pair — the single source of the structured error
// taxonomy: cancellations and timeouts surface as 503 (the service is
// saturated, the per-request deadline passed, or the client gave up),
// oversized graphs and bodies over maxBodyBytes as 413, dimension
// mismatches as 400, recovered panics as 500 (an engine fault, not the
// client's graph), everything else as 422 (the graph itself was
// unusable).
func classify(err error) (int, string) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, core.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "canceled"
	case errors.Is(err, core.ErrDisconnected):
		return http.StatusUnprocessableEntity, "disconnected"
	case errors.Is(err, core.ErrNotSPD):
		return http.StatusUnprocessableEntity, "not_spd"
	case errors.Is(err, core.ErrTooLarge):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, core.ErrDimension):
		return http.StatusBadRequest, "dimension"
	case errors.Is(err, engine.ErrUnknownKey):
		return http.StatusNotFound, "unknown_key"
	case errors.Is(err, engine.ErrInternal):
		return http.StatusInternalServerError, "internal"
	case errors.Is(err, engine.ErrStreamBackpressure):
		return http.StatusTooManyRequests, "backpressure"
	case errors.Is(err, engine.ErrStreamClosed):
		return http.StatusConflict, "stream_closed"
	case errors.Is(err, engine.ErrStreamLimit):
		return http.StatusServiceUnavailable, "stream_limit"
	case errors.Is(err, engine.ErrBadDelta):
		return http.StatusBadRequest, "bad_delta"
	case errors.Is(err, errUnknownStream):
		return http.StatusNotFound, "unknown_stream"
	}
	return http.StatusUnprocessableEntity, "invalid_graph"
}

// statusOf is classify's status for call sites that pick the code later.
func statusOf(err error) int {
	status, _ := classify(err)
	return status
}

// requestStatus is the status of an error in reading or decoding a
// request: 413 when the body overran maxBodyBytes, 400 otherwise.
func requestStatus(err error) int {
	if status, code := classify(err); code == "too_large" {
		return status
	}
	return http.StatusBadRequest
}

// jsonAppender is a response with a hand-written encoder; writeJSON
// renders every other value through json.Marshal.
type jsonAppender interface {
	appendJSON(e *wire.Encoder)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Encode before committing the status so an encoding failure (e.g. a
	// NaN that slipped into a result) yields a clean 500 instead of a 200
	// with a truncated body.
	e := wire.NewEncoder()
	defer e.Release()
	if a, ok := v.(jsonAppender); ok {
		a.appendJSON(e)
	} else {
		e.JSON(v)
	}
	if err := e.Err(); err != nil {
		log.Printf("encoding response: %v", err)
		status = http.StatusInternalServerError
		e.Reset()
		e.Raw(`{"error":"internal server error: unencodable response","code":"internal"}`)
	}
	e.Raw("\n")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(e.Bytes()); err != nil {
		log.Printf("writing response: %v", err)
	}
}

type errorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable member of the structured error
	// taxonomy: canceled | disconnected | not_spd | too_large | dimension
	// | unknown_key | internal | invalid_request | invalid_graph |
	// backpressure | stream_closed | stream_limit | bad_delta |
	// unknown_stream.
	Code string `json:"code"`
}

func writeErr(w http.ResponseWriter, status int, err error) {
	// The code comes from the error taxonomy when it recognizes the error;
	// otherwise the handler-chosen status names the code (a 404 is an
	// unknown key, a 400 a malformed request, a 5xx an engine fault, and
	// the 422 fallback an unusable graph).
	_, code := classify(err)
	if code == "invalid_graph" {
		switch {
		case status == http.StatusNotFound:
			code = "unknown_key"
		case status == http.StatusBadRequest:
			code = "invalid_request"
		case status >= http.StatusInternalServerError:
			code = "internal"
		}
	}
	// Server faults keep their detail in the log, not the response body.
	// Cancellations also map to 5xx (503) but are the client's deadline,
	// not a fault — their message is useful and safe to return.
	if code == "internal" {
		log.Printf("internal error: %v", err)
		err = errors.New("internal server error")
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: code})
}

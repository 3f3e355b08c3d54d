package fabric

import (
	"fmt"
	"math"

	"repro/internal/chol"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/sparse"
	"repro/internal/sparsify"
	"repro/internal/wire"
)

// ClusterPayload is the POST /v2/cluster request body: one planned
// cluster as a self-contained unit of work. Vertices carries the
// local→global map (local vertex i is global Vertices[i]); Edges uses
// local endpoints. The fingerprint key is the worker-side cache key —
// two requests with equal keys are guaranteed to produce identical
// results, which is what makes worker caches safe across rebuilds and
// coordinators.
//
// The payload travels through the wire codec (AppendJSON and
// decodePayload), as a JSON object with the keys key, n, vertices,
// edges (as [u, v, w] triples), opts, and — omitted when zero — epoch,
// prev_owner and factor.
type ClusterPayload struct {
	// Key is the cluster fingerprint (shard.ClusterKey).
	Key string
	// N is the local vertex count; Vertices the local→global map
	// (len N).
	N        int
	Vertices []int
	// Edges are the cluster's local edges.
	Edges wire.Edges
	// Opts is the per-cluster construction configuration (seed already
	// derived coordinator-side; it is part of the fingerprint).
	Opts WireOptions
	// Epoch is the coordinator's membership epoch at dispatch time, and
	// PrevOwner the base URL of the worker that owned Key under the
	// previous epoch (set only when membership changed and ownership
	// moved). A peer-fetch-enabled worker that misses its cache uses them
	// to try one GET /v2/cluster/{key} against the previous owner before
	// rebuilding. Advisory metadata only: the fetching worker validates
	// the fetched entry against this payload's own cluster edges, so
	// stale epoch information can cost one wasted round trip but never
	// serve a wrong-key result.
	Epoch     int64
	PrevOwner string
	// Factor, when non-nil, makes this a factorization job instead of a
	// cluster build: the worker runs the deterministic sparse Cholesky on
	// the shipped block and returns the serialized factor. Factor jobs
	// carry no cluster section (N = 0, no edges) — the block already
	// includes the overlap rows, which are assembled from the stitched
	// global pencil that only the coordinator holds.
	Factor *FactorSpec
}

// AppendJSON appends the payload's JSON encoding to b. It fails on a
// non-finite float: an edge weight, or one in the opts or factor blocks,
// which go through encoding/json.
func (p *ClusterPayload) AppendJSON(b []byte) ([]byte, error) {
	e := wire.NewEncoder()
	defer e.Release()
	e.Raw(`{"key":`)
	e.String(p.Key)
	e.Raw(`,"n":`)
	e.Int(p.N)
	e.Raw(`,"vertices":`)
	e.Ints(p.Vertices)
	e.Raw(`,"edges":`)
	e.Edges(p.Edges.List)
	e.Raw(`,"opts":`)
	e.JSON(p.Opts)
	if p.Epoch != 0 {
		e.Raw(`,"epoch":`)
		e.Int(int(p.Epoch))
	}
	if p.PrevOwner != "" {
		e.Raw(`,"prev_owner":`)
		e.String(p.PrevOwner)
	}
	if p.Factor != nil {
		e.Raw(`,"factor":`)
		e.JSON(p.Factor)
	}
	e.Raw(`}`)
	if err := e.Err(); err != nil {
		return b, err
	}
	return append(b, e.Bytes()...), nil
}

// decodePayload decodes a POST /v2/cluster body into p. Opts and Factor
// stay on encoding/json.
func decodePayload(data []byte, p *ClusterPayload) error {
	d := wire.NewDecoder(data)
	return d.Decode(func(key []byte) error {
		switch {
		case wire.Key(key, "key"):
			return d.String(&p.Key)
		case wire.Key(key, "n"):
			return d.Int(&p.N)
		case wire.Key(key, "vertices"):
			return d.Ints(&p.Vertices)
		case wire.Key(key, "edges"):
			return d.Edges(&p.Edges, 3)
		case wire.Key(key, "opts"):
			return d.JSON(&p.Opts)
		case wire.Key(key, "epoch"):
			return d.Int64(&p.Epoch)
		case wire.Key(key, "prev_owner"):
			return d.String(&p.PrevOwner)
		case wire.Key(key, "factor"):
			return d.JSON(&p.Factor)
		}
		return d.Skip()
	})
}

// FactorSpec is the SPD block of one remote factorization job: the
// cluster's overlap-extended principal submatrix of the stitched pencil,
// in full symmetric CSC storage. Values travel as JSON float64, which Go
// round-trips exactly (shortest-representation encoding), so the worker
// factorizes bit-for-bit the same matrix the coordinator would have.
type FactorSpec struct {
	N      int       `json:"n"`
	ColPtr []int     `json:"colptr"`
	RowIdx []int     `json:"rowidx"`
	Val    []float64 `json:"val"`
}

// factorSpecOf serializes a block for transport.
func factorSpecOf(a *sparse.CSC) *FactorSpec {
	return &FactorSpec{N: a.Cols, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: a.Val}
}

// csc validates the spec's shape and reassembles the block. Symmetry and
// positive definiteness are not checked here; the factorization itself
// rejects non-SPD input (chol.ErrNotPD).
func (fs *FactorSpec) csc() (*sparse.CSC, error) {
	n := fs.N
	if n < 1 {
		return nil, fmt.Errorf("factor block dimension %d", n)
	}
	if len(fs.ColPtr) != n+1 || fs.ColPtr[0] != 0 {
		return nil, fmt.Errorf("factor block has %d column pointers for n=%d", len(fs.ColPtr), n)
	}
	nnz := fs.ColPtr[n]
	if len(fs.RowIdx) != nnz || len(fs.Val) != nnz {
		return nil, fmt.Errorf("factor block storage misaligned (%d pointers vs %d/%d entries)",
			nnz, len(fs.RowIdx), len(fs.Val))
	}
	for j := 0; j < n; j++ {
		if fs.ColPtr[j+1] < fs.ColPtr[j] {
			return nil, fmt.Errorf("factor block column %d has decreasing pointers", j)
		}
	}
	for _, i := range fs.RowIdx {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("factor block row index %d outside n=%d", i, n)
		}
	}
	for _, v := range fs.Val {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, fmt.Errorf("factor block has non-finite entry %g", v)
		}
	}
	return &sparse.CSC{Rows: n, Cols: n, ColPtr: fs.ColPtr, RowIdx: fs.RowIdx, Val: fs.Val}, nil
}

// WireFactor is a serialized chol.Factor: the lower-triangular factor L
// (diagonal first per column, chol.New's layout) plus the fill-reducing
// permutation. The inverse permutation is deliberately absent — the
// receiver recomputes it rather than trusting the wire.
type WireFactor struct {
	N      int       `json:"n"`
	Perm   []int     `json:"perm"`
	ColPtr []int     `json:"colptr"`
	RowIdx []int     `json:"rowidx"`
	Val    []float64 `json:"val"`
}

// wireFactorOf serializes a factor for transport.
func wireFactorOf(f *chol.Factor) *WireFactor {
	return &WireFactor{N: f.N, Perm: f.Perm, ColPtr: f.L.ColPtr, RowIdx: f.L.RowIdx, Val: f.L.Val}
}

// factor reassembles and validates the factor (chol.FromParts performs
// the full structural and SPD-witness validation).
func (wf *WireFactor) factor() (*chol.Factor, error) {
	l := &sparse.CSC{Rows: wf.N, Cols: wf.N, ColPtr: wf.ColPtr, RowIdx: wf.RowIdx, Val: wf.Val}
	return chol.FromParts(wf.N, l, wf.Perm)
}

// WireOptions is the construction parameter block as it travels to a
// worker: every sparsify.Options field that enters the cluster
// fingerprint, nothing else. Workers always build single-threaded per
// request (parallelism lives at the request level).
type WireOptions struct {
	Method         int     `json:"method"`
	Alpha          float64 `json:"alpha,omitempty"`
	Rounds         int     `json:"rounds,omitempty"`
	Beta           int     `json:"beta,omitempty"`
	Delta          float64 `json:"delta,omitempty"`
	SimilarityHops int     `json:"similarity_hops,omitempty"`
	PowerSteps     int     `json:"power_steps,omitempty"`
	PowerVectors   int     `json:"power_vectors,omitempty"`
	ShiftRel       float64 `json:"shift_rel,omitempty"`
	Seed           int64   `json:"seed"`
}

// wireOptions flattens the per-cluster sparsify.Options for transport.
func wireOptions(o sparsify.Options) WireOptions {
	return WireOptions{
		Method:         int(o.Method),
		Alpha:          o.Alpha,
		Rounds:         o.Rounds,
		Beta:           o.Beta,
		Delta:          o.Delta,
		SimilarityHops: o.SimilarityHops,
		PowerSteps:     o.PowerSteps,
		PowerVectors:   o.PowerVectors,
		ShiftRel:       o.ShiftRel,
		Seed:           o.Seed,
	}
}

// sparsifyOptions is wireOptions' inverse, pinned to one worker thread.
func (wo WireOptions) sparsifyOptions() sparsify.Options {
	return sparsify.Options{
		Method:         sparsify.Method(wo.Method),
		Alpha:          wo.Alpha,
		Rounds:         wo.Rounds,
		Beta:           wo.Beta,
		Delta:          wo.Delta,
		SimilarityHops: wo.SimilarityHops,
		PowerSteps:     wo.PowerSteps,
		PowerVectors:   wo.PowerVectors,
		ShiftRel:       wo.ShiftRel,
		Seed:           wo.Seed,
		Workers:        1,
	}
}

// payloadOf encodes one dispatcher request as its wire payload.
func payloadOf(req *shard.ClusterRequest) *ClusterPayload {
	cl := req.Cluster
	return &ClusterPayload{
		Key:      req.Key,
		N:        cl.Local.N,
		Vertices: cl.Vertices,
		Edges:    wire.Edges{List: cl.Local.Edges},
		Opts:     wireOptions(req.Opts),
	}
}

// clusterRequest reconstructs the dispatcher request worker-side. It
// validates shape (vertex counts, endpoint ranges) but leaves graph
// semantics — connectivity, duplicate merging — to graph.New and the
// construction itself.
func (p *ClusterPayload) clusterRequest() (*shard.ClusterRequest, error) {
	if p.N < 1 {
		return nil, fmt.Errorf("cluster needs at least one vertex, got n=%d", p.N)
	}
	if len(p.Vertices) != p.N {
		return nil, fmt.Errorf("vertex map covers %d vertices, n=%d", len(p.Vertices), p.N)
	}
	if p.N > len(p.Edges.List)+1 {
		return nil, fmt.Errorf("n=%d cannot be connected by %d edges", p.N, len(p.Edges.List))
	}
	if err := p.Edges.Check("edge"); err != nil {
		return nil, err
	}
	g, err := graph.New(p.N, p.Edges.List)
	if err != nil {
		return nil, err
	}
	return &shard.ClusterRequest{
		Key:     p.Key,
		Cluster: &shard.Cluster{Vertices: p.Vertices, Local: g},
		Opts:    p.Opts.sparsifyOptions(),
	}, nil
}

// ClusterResponse is the POST /v2/cluster response body: the cluster's
// sparsifier as global endpoint pairs — the index-free representation
// the cluster caches store — plus construction stats (durations in
// nanoseconds). Factor jobs (ClusterPayload.Factor set) return the
// serialized factor instead of edges. GET /v2/cluster/{key} peer fetches
// return the cached edges with Key echoed so the fetcher can verify it
// got the entry it asked for.
type ClusterResponse struct {
	Edges [][2]int       `json:"edges,omitempty"`
	Stats sparsify.Stats `json:"stats"`
	// Cached reports the worker served the result from its local
	// cluster cache without rebuilding.
	Cached bool `json:"cached,omitempty"`
	// Key echoes the request's cluster fingerprint on peer-fetch (GET)
	// responses.
	Key string `json:"key,omitempty"`
	// Factor is the serialized Cholesky factor of a factor job's block.
	Factor *WireFactor `json:"factor,omitempty"`
	// PeerFetch reports what the worker's one-hop peer fetch did for this
	// request: "hit" (the previous owner served the entry, no rebuild) or
	// "miss" (fetch attempted, fell through to a normal build). Empty
	// when no fetch was attempted. The coordinator folds these into its
	// fleet telemetry.
	PeerFetch string `json:"peer_fetch,omitempty"`
}

// appendJSON renders the response as json.Marshal renders the struct,
// with the edge pairs through the wire encoder.
func (cr *ClusterResponse) appendJSON(e *wire.Encoder) {
	e.Raw(`{`)
	if len(cr.Edges) > 0 {
		e.Raw(`"edges":`)
		e.Pairs(cr.Edges)
		e.Raw(`,`)
	}
	e.Raw(`"stats":`)
	e.JSON(cr.Stats)
	if cr.Cached {
		e.Raw(`,"cached":true`)
	}
	if cr.Key != "" {
		e.Raw(`,"key":`)
		e.String(cr.Key)
	}
	if cr.Factor != nil {
		e.Raw(`,"factor":`)
		e.JSON(cr.Factor)
	}
	if cr.PeerFetch != "" {
		e.Raw(`,"peer_fetch":`)
		e.String(cr.PeerFetch)
	}
	e.Raw(`}`)
}

// errorResponse mirrors the serving layer's structured error shape.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

package shard

import (
	"context"
	"fmt"

	"repro/internal/sparsify"
)

// ClusterRequest is one cluster's unit of work as Run hands it to a
// Dispatcher: the planned cluster (self-contained local graph plus the
// local→global vertex map), its fingerprint, and the fully resolved
// per-cluster construction options (Workers pinned to 1, the per-cluster
// seed already derived). Everything a worker needs to reproduce the
// cluster's sparsifier bit-for-bit travels in this struct — the request
// is location-independent by design.
type ClusterRequest struct {
	// Index is the cluster's id in the plan (diagnostics only; it does
	// not enter the result).
	Index int
	// Key is the cluster fingerprint (ClusterKey): the placement key for
	// remote dispatch and the cache key on whichever machine builds it.
	Key     string
	Cluster *Cluster
	// Opts is the per-cluster construction configuration. Run derives it
	// from the pipeline options exactly as the in-process path always
	// has: Workers = 1 (parallelism lives at the cluster level), Seed =
	// the per-cluster seed that is part of the fingerprint.
	Opts sparsify.Options
}

// ClusterResult is the index-free outcome of one cluster build: the
// sparsifier edges as global endpoint pairs — the same representation the
// cluster cache stores, valid against any rebuild of the surrounding
// graph — plus the construction phase stats.
type ClusterResult struct {
	Edges [][2]int
	// Weights, when non-nil, carries a per-edge weight override aligned
	// with Edges (0 keeps the original weight). The ER method's
	// importance reweighting travels here; methods that keep original
	// weights leave it nil, which is why the cluster cache and the
	// fabric protocol — both built on the index-free endpoint-pair
	// representation — stay weight-free (Run keeps ER clusters off
	// both paths).
	Weights []float64
	Stats   sparsify.Stats
	// Remote reports the result came from a remote fabric worker rather
	// than an in-process build (including a remote dispatcher's local
	// fallback, which reports false).
	Remote bool
}

// Dispatcher executes cluster builds on behalf of Run. The in-process
// implementation (internal/fabric.Local) wraps BuildCluster; the fleet
// implementation (internal/fabric.Remote) ships the request to a worker
// over HTTP/JSON and degrades to the local path when the fleet cannot
// answer. Implementations must be safe for concurrent use: Run dispatches
// from its bounded worker pool.
type Dispatcher interface {
	Dispatch(ctx context.Context, req *ClusterRequest) (*ClusterResult, error)
}

// BuildCluster executes one cluster request in-process: run the
// configured sparsification algorithm on the cluster's local graph and
// return the surviving edges as global endpoint pairs. It is the body of
// Run's former worker loop, factored out so the local Dispatcher, the
// remote fallback path, and the fabric worker's HTTP handler all execute
// the identical construction.
func BuildCluster(ctx context.Context, req *ClusterRequest) (*ClusterResult, error) {
	cl := req.Cluster
	res, err := sparsify.SparsifyContext(ctx, cl.Local, req.Opts)
	if err != nil {
		return nil, fmt.Errorf("shard: cluster %d (%d vertices): %w", req.Index, cl.Local.N, err)
	}
	pairs := make([][2]int, len(res.EdgeIdx))
	for i, le := range res.EdgeIdx {
		e := cl.Local.Edges[le]
		pairs[i] = [2]int{cl.Vertices[e.U], cl.Vertices[e.V]}
	}
	cres := &ClusterResult{Edges: pairs, Stats: res.Stats}
	if res.Reweight != nil {
		ws := make([]float64, len(res.EdgeIdx))
		for i, le := range res.EdgeIdx {
			ws[i] = res.Reweight[le]
		}
		cres.Weights = ws
	}
	return cres, nil
}

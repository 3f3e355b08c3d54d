package shard

import (
	"context"
	"fmt"

	"repro/internal/sparsify"
)

// ClusterRequest is one cluster's unit of work as Run hands it to
// BuildCluster or a Dispatcher: the planned cluster (self-contained local
// graph plus the local→global vertex map) and the fully resolved
// per-cluster construction options (the cluster's share of the scoring
// workers, the per-cluster seed already derived). Everything needed to
// reproduce the cluster's sparsifier bit-for-bit travels in this struct;
// the worker count is not part of that, since scores do not depend on it.
type ClusterRequest struct {
	// Index is the cluster's id in the plan (diagnostics only; it does
	// not enter the result).
	Index   int
	Cluster *Cluster
	// Opts is the per-cluster construction configuration. Run derives it
	// from the pipeline options: Workers = max(1, total/built), where
	// total is the pipeline's worker budget and built the number of dirty
	// clusters (1 for ER, whose sketches round by worker count), and
	// Seed = the per-cluster seed that is part of the fingerprint.
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
	// weights leave it nil, which is why the cluster cache, built on the
	// index-free endpoint-pair representation, stays weight-free (Run
	// keeps ER clusters out of it).
	Weights []float64
	Stats   sparsify.Stats
}

// Dispatcher wraps the build of each non-tiny, cache-missing cluster:
// Run hands it the request instead of calling BuildCluster itself. Its
// job is instrumentation and testing. perfbench's layer replay wraps
// BuildCluster in a span to time every cluster build, and the shard
// tests reorder, fail, stall or record builds through it.
// Implementations must be safe for concurrent use: Run dispatches from
// its bounded worker pool.
type Dispatcher interface {
	Dispatch(ctx context.Context, req *ClusterRequest) (*ClusterResult, error)
}

// BuildCluster executes one cluster request in-process: run the
// configured sparsification algorithm on the cluster's local graph and
// return the surviving edges as global endpoint pairs (and the ER
// method's weight overrides). Run calls it for every cluster it builds
// when no Dispatcher is set.
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

// Package fabric is the distributed shard fabric: the dispatch layer
// that decides where each cluster of a sharded sparsification build
// executes. The shard pipeline (internal/shard) was shaped for exactly
// this seam — a cluster payload is a self-contained local graph plus a
// local→global vertex map, its result is an index-free set of endpoint
// pairs, and the per-cluster seed and fingerprint travel with the
// request — so a cluster build is location-independent by construction.
//
// Two shard.Dispatcher implementations live here:
//
//   - Local runs the build in-process (the pre-fabric behaviour,
//     factored behind the interface);
//   - Remote fans cluster payloads out to a worker fleet over HTTP/JSON
//     (POST /v2/cluster, the house idiom), with rendezvous-hashed
//     placement on the cluster fingerprint so each worker's local
//     cluster cache keeps its hit rate across rebuilds, per-attempt
//     deadlines, bounded retries with exponential backoff, hedged
//     dispatch for stragglers (first result wins, the loser's request
//     is canceled), and graceful degradation to Local when a worker —
//     or the whole fleet — is down or returns malformed results.
//
// Worker is the other end of the wire: the HTTP handler a
// `trsparsed -worker` process serves, executing cluster builds against
// its own cluster cache.
//
// The fleet builds cluster sparsifiers only. The coordinator factorizes
// the preconditioner itself, on the machine that solves with it.
package fabric

import (
	"context"

	"repro/internal/shard"
)

// Local executes cluster builds in-process. It is the zero-dependency
// shard.Dispatcher the coordinator degrades to when the fleet cannot
// answer, and the implementation a fleet-less build uses (shard.Run with
// a nil Dispatcher short-circuits to the same code path).
type Local struct{}

// Dispatch implements shard.Dispatcher.
func (Local) Dispatch(ctx context.Context, req *shard.ClusterRequest) (*shard.ClusterResult, error) {
	return shard.BuildCluster(ctx, req)
}

package shard

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sparsify"
)

// ClusterCache is the per-cluster artifact store consulted and populated
// by Run when Options.Cache is set. Keys are cluster fingerprints
// (ClusterKey); values are the cluster's sparsifier edges as global
// endpoint pairs, which stay valid across rebuilds of the surrounding
// graph because the vertex set is fixed while edge *indices* are not.
// The serving engine backs this with a shared LRU so delta rebuilds (and
// identical resubmissions) reuse clusters' work; a delta rebuild's clean
// clusters adopt the base build's edges without consulting it.
//
// Implementations must be safe for concurrent use: Run consults the
// cache from its cluster workers.
type ClusterCache interface {
	// GetCluster returns the cached sparsifier endpoint pairs for key.
	GetCluster(key string) ([][2]int, bool)
	// AddCluster stores the sparsifier endpoint pairs for key. The slice
	// is owned by the cache after the call.
	AddCluster(key string, edges [][2]int)
}

// FNV-1a parameters (64-bit), matching the engine's graph fingerprint.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// ClusterKey fingerprints one planned cluster: the sorted local edge set
// (as global endpoint pairs and weight bits, order-independent via the
// same sort-then-chain scheme as the engine's graph fingerprint), the
// per-cluster seed, and every construction option that influences the
// cluster's sparsifier. Two clusters with equal keys produce identical
// sparsifier edge sets, so a cached result can be adopted verbatim; any
// weight change, membership change, seed change, or config change yields
// a different key and a rebuild.
func ClusterKey(cl *Cluster, seed int64, o sparsify.Options) string {
	hs := make([]uint64, len(cl.Local.Edges))
	for i, e := range cl.Local.Edges {
		h := uint64(fnvOffset)
		h = (h ^ uint64(cl.Vertices[e.U])) * fnvPrime
		h = (h ^ uint64(cl.Vertices[e.V])) * fnvPrime
		h = (h ^ math.Float64bits(e.W)) * fnvPrime
		hs[i] = h
	}
	slices.Sort(hs)
	h := uint64(fnvOffset)
	h = (h ^ uint64(cl.Local.N)) * fnvPrime
	h = (h ^ uint64(cl.Local.M())) * fnvPrime
	for _, eh := range hs {
		h = (h ^ eh) * fnvPrime
	}
	h = (h ^ uint64(seed)) * fnvPrime
	h = (h ^ uint64(o.Method)) * fnvPrime
	h = (h ^ math.Float64bits(o.Alpha)) * fnvPrime
	h = (h ^ uint64(o.Rounds)) * fnvPrime
	h = (h ^ uint64(o.Beta)) * fnvPrime
	h = (h ^ math.Float64bits(o.Delta)) * fnvPrime
	h = (h ^ uint64(o.SimilarityHops)) * fnvPrime
	h = (h ^ uint64(o.PowerSteps)) * fnvPrime
	h = (h ^ uint64(o.PowerVectors)) * fnvPrime
	h = (h ^ math.Float64bits(o.ShiftRel)) * fnvPrime
	h = (h ^ uint64(o.ERSketches)) * fnvPrime
	h = (h ^ math.Float64bits(o.EREpsilon)) * fnvPrime
	return fmt.Sprintf("c%d-%d-%016x", cl.Local.N, cl.Local.M(), h)
}

// clusterSeed is the per-cluster seed derivation Run applies: decorrelate
// cluster randomness while keeping the whole build reproducible from the
// caller's seed. It is part of the cluster identity (the seed enters the
// fingerprint), so a cluster whose plan index shifts simply misses the
// cache instead of silently reusing a differently-seeded result.
func clusterSeed(base int64, ci int) int64 { return base + int64(ci)*1_000_003 }

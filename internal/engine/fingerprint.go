package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// Fingerprint is a cheap content identity for a graph: vertex count, edge
// count, and an FNV-1a hash of the normalized edge list (endpoints and
// weight bits). Two graphs with the same fingerprint are treated as the
// same artifact by the Store; the hash makes an (n, m) collision between
// different graphs vanishingly unlikely while costing one O(m log m)
// pass — negligible next to sparsification.
type Fingerprint struct {
	N    int
	M    int
	Hash uint64
}

// FNV-1a parameters (64-bit).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// FingerprintGraph computes g's fingerprint. graph.New normalizes edges
// (u < v, deduplicated) but preserves insertion order, so equal graphs
// built from permuted edge lists may store their edges in different
// orders. To stay order-independent without the malleability of a plain
// sum (where a collision is a solvable subset-sum over crafted weights),
// the per-edge hashes are sorted into a canonical order and then chained
// through one position-dependent FNV stream.
func FingerprintGraph(g *graph.Graph) Fingerprint {
	hs := make([]uint64, len(g.Edges))
	for i, e := range g.Edges {
		h := uint64(fnvOffset)
		h = (h ^ uint64(e.U)) * fnvPrime
		h = (h ^ uint64(e.V)) * fnvPrime
		h = (h ^ math.Float64bits(e.W)) * fnvPrime
		hs[i] = h
	}
	slices.Sort(hs)
	h := uint64(fnvOffset)
	h = (h ^ uint64(g.N)) * fnvPrime
	h = (h ^ uint64(g.M())) * fnvPrime
	for _, eh := range hs {
		h = (h ^ eh) * fnvPrime
	}
	return Fingerprint{N: g.N, M: g.M(), Hash: h}
}

// Key renders the fingerprint as the stable string the Store and the HTTP
// API use to reference a cached artifact, e.g. "g2500-4900-1a2b3c4d5e6f7081".
func (f Fingerprint) Key() string {
	return fmt.Sprintf("g%d-%d-%016x", f.N, f.M, f.Hash)
}

// Digest identifies one request: the SHA-256 of its build options and
// its body bytes (BodyDigest). The store aliases digests to artifact
// keys, so a byte-identical request finds its artifact without decoding
// the graph. It is a cryptographic hash because a collision would serve
// another graph's sparsifier.
type Digest [sha256.Size]byte

// BodyDigest hashes bo in a canonical fixed-width form, then body. The
// same body under different build options yields a different digest, as
// it may resolve to a different artifact.
func BodyDigest(bo BuildOpts, body []byte) Digest {
	method := int64(-1) // nil: inherit the engine's method
	if bo.Method != nil {
		method = int64(*bo.Method)
	}
	var opts [24]byte
	binary.LittleEndian.PutUint64(opts[0:], uint64(bo.ShardThreshold))
	binary.LittleEndian.PutUint64(opts[8:], uint64(bo.Shards))
	binary.LittleEndian.PutUint64(opts[16:], uint64(method))
	h := sha256.New()
	h.Write(opts[:])
	h.Write(body)
	var d Digest
	h.Sum(d[:0])
	return d
}

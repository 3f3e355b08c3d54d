package trsparse

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestShardedBuildGolden pins the exact output of a sharded build of the
// build-cold-sized circuit grid: the sparsifier's edge list (endpoints and
// weight bits, in order) and the preconditioner factor's nonzero count,
// for both preconditioner strategies, each requested explicitly, plus the
// default, which must be the monolithic factor. The fill-reducing
// orderings and the sparse assembly sort decide these figures, so any
// change to those kernels that is not bit-identical moves one of them.
//
// The figures were recorded at commit 34e4a71, before the ordering heap
// and the assembly sort were rewritten; a kernel change must leave them
// exactly as they are.
func TestShardedBuildGolden(t *testing.T) {
	g := CircuitGrid(112, 112, 0.08, 1)
	cases := []struct {
		name      string
		precond   Precond
		edgesHash uint64
		factorNNZ int
	}{
		{"schwarz", PrecondSchwarz, 0x36d7b6d11eb45487, 70151},
		{"monolithic", PrecondMonolithic, 0x36d7b6d11eb45487, 49373},
		{"auto", PrecondAuto, 0x36d7b6d11eb45487, 49373},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(context.Background(), g, WithShardThreshold(4096), WithSeed(1), WithPrecond(tc.precond))
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var buf [24]byte
			for _, e := range s.SparsifierGraph().Edges {
				binary.LittleEndian.PutUint64(buf[0:], uint64(e.U))
				binary.LittleEndian.PutUint64(buf[8:], uint64(e.V))
				binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(e.W))
				h.Write(buf[:])
			}
			got := h.Sum64()
			if got != tc.edgesHash || s.FactorNNZ() != tc.factorNNZ {
				t.Errorf("sparsifier edges hash %#x (want %#x), factor nnz %d (want %d)",
					got, tc.edgesHash, s.FactorNNZ(), tc.factorNNZ)
			}
		})
	}
}

package trsparse

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/precond"
)

// TestShardedBuildGolden pins the exact output of a sharded build of the
// build-cold-sized circuit grid: the sparsifier's edge list (endpoints and
// weight bits, in order) and the nonzero count of each preconditioner
// builder's factors on its L_P — the handle's own factor ("auto"), a
// fresh monolithic factorization, and Schwarz over the plan's clusters.
// The fill-reducing orderings and the sparse assembly sort decide these
// figures, so any change to those kernels that is not bit-identical moves
// one of them.
//
// The figures were recorded at commit 34e4a71, before the ordering heap
// and the assembly sort were rewritten; a kernel change must leave them
// exactly as they are.
func TestShardedBuildGolden(t *testing.T) {
	g := CircuitGrid(112, 112, 0.08, 1)
	s, err := New(context.Background(), g, WithShardThreshold(4096), WithSeed(1))
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
	if got, want := h.Sum64(), uint64(0x36d7b6d11eb45487); got != want {
		t.Errorf("sparsifier edges hash %#x, want %#x", got, want)
	}
	lp, st := s.Pencil().LP, s.ShardStats()
	cases := []struct {
		name      string
		factorNNZ func() (int64, error)
		want      int64
	}{
		{"schwarz", func() (int64, error) {
			_, ps, err := precond.NewSchwarz(st.Assign, precond.SchwarzOptions{Keys: st.ClusterKeys}).Build(lp)
			if err != nil {
				return 0, err
			}
			return ps.FactorNNZ, nil
		}, 70151},
		{"monolithic", func() (int64, error) {
			_, ps, err := precond.NewMonolithic().Build(lp)
			if err != nil {
				return 0, err
			}
			return ps.FactorNNZ, nil
		}, 49373},
		{"auto", func() (int64, error) { return int64(s.FactorNNZ()), nil }, 49373},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.factorNNZ()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("factor nnz %d, want %d", got, tc.want)
			}
		})
	}
}

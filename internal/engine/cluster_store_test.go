package engine

import (
	"fmt"
	"testing"

	"repro/internal/chol"
	"repro/internal/gen"
	"repro/internal/lap"
)

// pairsOfSize builds an edge set whose accounted footprint is
// 16*n bytes plus entry overhead.
func pairsOfSize(n int) [][2]int {
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{i, i + 1}
	}
	return out
}

func TestClusterStoreByteBudgetEvicts(t *testing.T) {
	// Each entry: overhead(160) + key(2..3) + 16*100 = ~1763 bytes. A
	// 4 KiB budget fits two entries, not three.
	s := NewClusterStore(100, 4096)
	for i := 0; i < 6; i++ {
		s.AddCluster(fmt.Sprintf("c%d", i), pairsOfSize(100))
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("store holds %d entries under a 2-entry byte budget, want 2", got)
	}
	if b := s.Bytes(); b > 4096 {
		t.Fatalf("accounted bytes %d exceed the 4096 budget", b)
	}
	if ev := s.Evictions(); ev != 4 {
		t.Fatalf("evictions = %d, want 4", ev)
	}
	// The most recently added entries must be the survivors.
	if _, ok := s.GetCluster("c5"); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := s.GetCluster("c0"); ok {
		t.Fatal("oldest entry survived byte pressure")
	}
}

func TestClusterStoreOversizedEntryStillCaches(t *testing.T) {
	// One entry bigger than the whole budget: the budget bounds
	// accumulation, not admission — the entry must be admitted and must
	// be the only resident.
	s := NewClusterStore(100, 1024)
	s.AddCluster("small", pairsOfSize(4))
	s.AddCluster("huge", pairsOfSize(10000))
	if _, ok := s.GetCluster("huge"); !ok {
		t.Fatal("oversized entry was not admitted")
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("store holds %d entries, want only the oversized one", got)
	}
}

func TestClusterStoreBytesTrackUpdates(t *testing.T) {
	s := NewClusterStore(100, 0) // no byte budget: accounting only
	s.AddCluster("k", pairsOfSize(10))
	before := s.Bytes()
	s.AddCluster("k", pairsOfSize(1000)) // replace in place, same key
	after := s.Bytes()
	if after-before != 16*(1000-10) {
		t.Fatalf("byte accounting drifted on update: before=%d after=%d", before, after)
	}
	if s.Len() != 1 {
		t.Fatalf("update duplicated the entry: len=%d", s.Len())
	}
}

func TestClusterStoreNoByteBudgetKeepsCountBound(t *testing.T) {
	s := NewClusterStore(3, 0)
	for i := 0; i < 10; i++ {
		s.AddCluster(fmt.Sprintf("c%d", i), pairsOfSize(50))
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("count bound broken: len=%d, want 3", got)
	}
}

// TestClusterStoreChargesWholeFactor gives the store a byte budget one
// byte above what it would account for a real factor entry plus a small
// edge entry under the old MemBytes, which charged 12 bytes per factor
// entry plus the column pointers and left out the permutations. A budget
// sized from that under-count must not keep the factor: with its real
// footprint charged, the older factor entry is evicted.
func TestClusterStoreChargesWholeFactor(t *testing.T) {
	g := gen.Grid2D(20, 20, 1)
	f, err := chol.New(lap.Laplacian(g, lap.Shift(g, 0)), chol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, g.N)
	for i := range idx {
		idx[i] = i
	}
	fill := func(s *ClusterStore) {
		s.AddFactor("factor", f, idx)
		s.AddCluster("edges", pairsOfSize(10))
	}
	unbounded := NewClusterStore(100, 0)
	fill(unbounded)
	underCount := int64(f.NNZ())*12 + int64(f.N+1)*8
	budget := unbounded.Bytes() - f.MemBytes() + underCount + 1

	s := NewClusterStore(100, budget)
	fill(s)
	if _, _, ok := s.GetFactor("factor"); ok {
		t.Fatalf("factor stayed resident under a %d-byte budget; the store charges %d bytes for the two entries", budget, unbounded.Bytes())
	}
	if _, ok := s.GetCluster("edges"); !ok {
		t.Fatal("the most recent entry was evicted")
	}
}

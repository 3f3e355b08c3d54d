package engine

import (
	"fmt"
	"testing"
)

func testArtifact(i int) *Artifact {
	fp := Fingerprint{N: i, M: i, Hash: uint64(i)}
	return &Artifact{Fingerprint: fp, Key: fp.Key()}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(2)
	a1, a2, a3 := testArtifact(1), testArtifact(2), testArtifact(3)
	s.Add(a1)
	s.Add(a2)
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	s.Add(a3) // evicts a1 (least recently used)
	if _, ok := s.Get(a1.Key); ok {
		t.Fatal("a1 survived eviction")
	}
	if _, ok := s.Get(a2.Key); !ok {
		t.Fatal("a2 was evicted")
	}
	if _, ok := s.Get(a3.Key); !ok {
		t.Fatal("a3 missing")
	}
	if s.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions())
	}
}

func TestStoreGetRefreshesRecency(t *testing.T) {
	s := NewStore(2)
	a1, a2, a3 := testArtifact(1), testArtifact(2), testArtifact(3)
	s.Add(a1)
	s.Add(a2)
	s.Get(a1.Key) // a1 becomes most recent; a2 is now the LRU tail
	s.Add(a3)
	if _, ok := s.Get(a1.Key); !ok {
		t.Fatal("recently-used a1 was evicted")
	}
	if _, ok := s.Get(a2.Key); ok {
		t.Fatal("a2 survived eviction despite being LRU")
	}
}

func TestStoreReAddMovesToFront(t *testing.T) {
	s := NewStore(2)
	a1, a2 := testArtifact(1), testArtifact(2)
	s.Add(a1)
	s.Add(a2)
	s.Add(a1) // refresh, no growth
	if s.Len() != 2 {
		t.Fatalf("re-add grew the store to %d", s.Len())
	}
	if got := s.Keys(); got[0] != a1.Key {
		t.Fatalf("front = %s, want %s", got[0], a1.Key)
	}
	s.Add(testArtifact(3)) // must evict a2, not a1
	if _, ok := s.Get(a2.Key); ok {
		t.Fatal("a2 survived eviction")
	}
}

func TestStoreRemove(t *testing.T) {
	s := NewStore(4)
	a := testArtifact(1)
	s.Add(a)
	s.Remove(a.Key)
	if _, ok := s.Get(a.Key); ok {
		t.Fatal("removed artifact still present")
	}
	s.Remove("missing") // no-op
	if s.Len() != 0 {
		t.Fatalf("len = %d, want 0", s.Len())
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore(8)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				a := testArtifact(w*1000 + i%16)
				s.Add(a)
				s.Get(a.Key)
				s.AddAlias(testDigest(i%24), a.Key)
				s.GetDigest(testDigest(i % 24))
				if i%10 == 0 {
					s.Keys()
					s.Len()
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if s.Len() > 8 {
		t.Fatalf("store over capacity: %d", s.Len())
	}
	if n := len(s.aliases); n > 8*maxAliases {
		t.Fatalf("%d aliases for %d artifacts", n, s.Len())
	}
	_ = fmt.Sprintf("%d evictions", s.Evictions())
}

func testDigest(i int) Digest {
	return BodyDigest(BuildOpts{}, []byte(fmt.Sprintf("body %d", i)))
}

// TestStoreAliasesDieWithTheirArtifact: an alias resolves while its
// artifact is resident and is gone after eviction or Remove; a
// replacement under the same key inherits it.
func TestStoreAliasesDieWithTheirArtifact(t *testing.T) {
	s := NewStore(2)
	a1, a2, a3 := testArtifact(1), testArtifact(2), testArtifact(3)
	d1, d2, d3 := testDigest(1), testDigest(2), testDigest(3)
	s.Add(a1)
	s.Add(a2)
	s.AddAlias(d1, a1.Key)
	s.AddAlias(d2, a2.Key)
	s.AddAlias(d3, "g9-9-0000000000000009") // not resident: no alias
	if got, ok := s.GetDigest(d1); !ok || got != a1 {
		t.Fatal("d1 does not resolve to a1")
	}
	if _, ok := s.GetDigest(d3); ok || len(s.aliases) != 2 {
		t.Fatalf("alias to a missing key was kept (%d aliases)", len(s.aliases))
	}
	s.Get(a2.Key) // a1 becomes the LRU tail
	s.Add(a3)
	if _, ok := s.GetDigest(d1); ok || len(s.aliases) != 1 {
		t.Fatalf("d1 outlived a1's eviction (%d aliases)", len(s.aliases))
	}
	s.Remove(a2.Key)
	if _, ok := s.GetDigest(d2); ok || len(s.aliases) != 0 {
		t.Fatalf("d2 outlived Remove (%d aliases)", len(s.aliases))
	}
	s.AddAlias(d3, a3.Key)
	a3b := testArtifact(3)
	s.Add(a3b)
	if got, ok := s.GetDigest(d3); !ok || got != a3b {
		t.Fatal("replacement under the same key lost the alias")
	}
}

// TestStoreAliasesPerArtifactBounded: an artifact keeps its maxAliases
// newest digests; the oldest go first.
func TestStoreAliasesPerArtifactBounded(t *testing.T) {
	s := NewStore(2)
	a := testArtifact(1)
	s.Add(a)
	for i := range 10 {
		s.AddAlias(testDigest(i), a.Key)
		s.AddAlias(testDigest(i), a.Key) // a repeat adds nothing
	}
	if len(s.aliases) != maxAliases {
		t.Fatalf("%d aliases, want %d", len(s.aliases), maxAliases)
	}
	for i := range 10 {
		if _, ok := s.GetDigest(testDigest(i)); ok != (i >= 10-maxAliases) {
			t.Fatalf("digest %d resolves=%v", i, ok)
		}
	}
}

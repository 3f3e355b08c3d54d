package engine

import (
	"bytes"
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Artifact is one cached build: a core.Sparsifier handle — the same
// long-lived unit the public trsparse.New API hands out — plus its
// fingerprint identity and build telemetry. The handle carries the
// sparsifier subgraph and the prepared pencil (shift, L_G, L_P, Cholesky
// factorization), so a cache hit makes Solve/Fiedler/CondNumber requests
// pure factorization reuse with no sparsification and no refactorization.
// There is deliberately no parallel artifact representation: what the
// engine caches and what the library API returns are the same object.
//
// Artifacts are immutable after construction, apart from the rendered
// edge memo (RenderedEdges), and safe to share across goroutines.
type Artifact struct {
	Fingerprint Fingerprint
	Key         string
	Handle      *core.Sparsifier
	BuiltAt     time.Time
	BuildTime   time.Duration

	// rendered holds the sparsifier edges as JSON once RenderedEdges has
	// run. It lives and dies with the artifact, so the store's capacity
	// bounds it too.
	rendered atomic.Pointer[[]byte]
}

// RenderedEdges returns the sparsifier's edges as the JSON array of
// [u,v,w] triples wire.Encoder.Edges writes. The first call renders them
// and the artifact keeps the bytes, so later calls cost nothing; callers
// must not modify them. A weight JSON cannot represent is an error, and
// nothing is kept.
func (a *Artifact) RenderedEdges() ([]byte, error) {
	if b := a.rendered.Load(); b != nil {
		return *b, nil
	}
	enc := wire.NewEncoder()
	defer enc.Release()
	enc.Edges(a.SparsifierGraph().Edges)
	if err := enc.Err(); err != nil {
		return nil, err
	}
	// Concurrent first calls render the same bytes; either copy may win.
	b := bytes.Clone(enc.Bytes())
	a.rendered.Store(&b)
	return b, nil
}

// SparsifierGraph returns the cached handle's sparsifier subgraph.
func (a *Artifact) SparsifierGraph() *graph.Graph { return a.Handle.SparsifierGraph() }

// Pencil returns the cached handle's prepared pencil.
func (a *Artifact) Pencil() *core.Pencil { return a.Handle.Pencil() }

// maxAliases bounds the request digests (see Store.AddAlias) kept per
// artifact; the oldest is dropped first.
const maxAliases = 4

// Store is a mutex-guarded LRU cache of Artifacts keyed by graph
// fingerprint. Capacity bounds resident factorizations (the dominant
// memory cost); least-recently-used artifacts are evicted on insert.
//
// Beside the keys, an alias index maps request digests to artifacts, so
// a byte-identical request finds its artifact without decoding the
// graph. An alias dies with its artifact, and an artifact keeps at most
// maxAliases of them, so the index is bounded by the capacity too.
type Store struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *storeEntry
	items    map[string]*list.Element
	aliases  map[Digest]*list.Element
	evicted  int64
}

// storeEntry is one resident artifact and the digests aliased to it,
// oldest first.
type storeEntry struct {
	art     *Artifact
	digests []Digest
}

// NewStore creates a store holding at most capacity artifacts
// (capacity ≤ 0 selects DefaultCacheSize).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &Store{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
		aliases:  make(map[Digest]*list.Element),
	}
}

// Get returns the artifact for key, marking it most recently used.
func (s *Store) Get(key string) (*Artifact, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*storeEntry).art, true
}

// GetDigest returns the artifact a digest is aliased to, marking it most
// recently used.
func (s *Store) GetDigest(d Digest) (*Artifact, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.aliases[d]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*storeEntry).art, true
}

// AddAlias aliases digest d to the artifact stored under key, dropping
// that artifact's oldest alias beyond maxAliases. It does nothing when
// key is not resident (the artifact was evicted meanwhile).
func (s *Store) AddAlias(d Digest, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return
	}
	if _, ok := s.aliases[d]; ok {
		// The key is a function of the body and the build options, so a
		// known digest already names this entry.
		return
	}
	ent := el.Value.(*storeEntry)
	if len(ent.digests) == maxAliases {
		delete(s.aliases, ent.digests[0])
		ent.digests = append(ent.digests[:0], ent.digests[1:]...)
	}
	ent.digests = append(ent.digests, d)
	s.aliases[d] = el
}

// Add inserts (or refreshes) an artifact, evicting from the LRU tail when
// over capacity. An artifact that replaces another under the same key
// keeps its aliases: a digest names a request, and the request resolves
// to the key.
func (s *Store) Add(a *Artifact) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[a.Key]; ok {
		el.Value.(*storeEntry).art = a
		s.ll.MoveToFront(el)
		return
	}
	s.items[a.Key] = s.ll.PushFront(&storeEntry{art: a})
	for s.ll.Len() > s.capacity {
		s.drop(s.ll.Back())
		s.evicted++
	}
}

// Remove drops the artifact for key, and its aliases, if present.
func (s *Store) Remove(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.drop(el)
	}
}

// drop removes an entry with its aliases; s.mu must be held.
func (s *Store) drop(el *list.Element) {
	ent := s.ll.Remove(el).(*storeEntry)
	delete(s.items, ent.art.Key)
	for _, d := range ent.digests {
		delete(s.aliases, d)
	}
}

// Len returns the number of cached artifacts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Capacity returns the configured maximum.
func (s *Store) Capacity() int { return s.capacity }

// Evictions returns the number of artifacts dropped by LRU pressure.
func (s *Store) Evictions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Keys returns the cached keys from most to least recently used.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*storeEntry).art.Key)
	}
	return out
}

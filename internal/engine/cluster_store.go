package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/chol"
)

// DefaultClusterCacheSize is the cluster-store capacity when
// Options.ClusterCacheSize is unset. Sharded builds produce tens of
// clusters each, so the cluster store runs much deeper than the
// whole-graph artifact store.
const DefaultClusterCacheSize = 1024

// clusterEntry is one cluster's cached artifacts: the sparsifier edge
// set as global endpoint pairs (shard.ClusterCache) and, when a caller
// stores one through AddFactor, a Schwarz factor with its extended index
// set (precond.FactorCache). Both halves share one key — the cluster
// fingerprint — and one LRU slot.
type clusterEntry struct {
	key       string
	edges     [][2]int
	factor    *chol.Factor
	factorIdx []int
	// bytes is the entry's accounted footprint (see entryBytes), kept
	// current by upsert so the store can enforce a byte budget without
	// rescanning.
	bytes int64
}

// clusterEntryOverhead approximates the fixed per-entry cost outside the
// payload slices: the entry struct, its list element, and the map slot.
const clusterEntryOverhead = 160

// entryBytes estimates one entry's resident footprint: the key string,
// 16 bytes per edge pair, 8 per factor index, and the factor's own
// accounting. An estimate is all eviction needs — the budget bounds
// growth, it is not a malloc ledger.
func entryBytes(e *clusterEntry) int64 {
	b := int64(clusterEntryOverhead) + int64(len(e.key)) +
		16*int64(len(e.edges)) + 8*int64(len(e.factorIdx))
	if e.factor != nil {
		b += e.factor.MemBytes()
	}
	return b
}

// ClusterStore is a mutex-guarded LRU of per-cluster artifacts keyed by
// cluster fingerprint (shard.ClusterKey). It implements
// shard.ClusterCache, the sparsifier reuse of an incremental rebuild,
// and precond.FactorCache; it sits alongside the whole-graph Store, and entries outlive the
// whole-graph artifacts they were built for (two graphs sharing an
// untouched cluster share its entry).
type ClusterStore struct {
	mu       sync.Mutex
	capacity int
	maxBytes int64      // 0 = no byte budget
	bytes    int64      // accounted footprint of resident entries
	ll       *list.List // front = most recently used; values are *clusterEntry
	items    map[string]*list.Element

	hits    atomic.Int64
	misses  atomic.Int64
	evicted atomic.Int64
}

// NewClusterStore creates a store holding at most capacity cluster
// entries (capacity ≤ 0 selects DefaultClusterCacheSize) and at most
// maxBytes of accounted artifact footprint (0 disables the byte budget).
// Entry count bounds metadata churn; the byte budget is what actually
// bounds memory, because entries vary with cluster size.
func NewClusterStore(capacity int, maxBytes int64) *ClusterStore {
	if capacity <= 0 {
		capacity = DefaultClusterCacheSize
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &ClusterStore{
		capacity: capacity,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// get returns a copy of the entry for key, taken under the lock, and
// marks it most recently used. It counts nothing: a present entry may
// hold only one of its two halves, so the callers decide what a hit is.
func (s *ClusterStore) get(key string) (clusterEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return clusterEntry{}, false
	}
	s.ll.MoveToFront(el)
	return *el.Value.(*clusterEntry), true
}

// upsert applies fn to the (possibly fresh) entry for key under the lock
// and evicts from the tail when over capacity.
func (s *ClusterStore) upsert(key string, fn func(*clusterEntry)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		el = s.ll.PushFront(&clusterEntry{key: key})
		s.items[key] = el
	} else {
		s.ll.MoveToFront(el)
	}
	e := el.Value.(*clusterEntry)
	fn(e)
	s.bytes += entryBytes(e) - e.bytes
	e.bytes = entryBytes(e)
	// Evict from the tail while either budget is exceeded. The byte loop
	// always keeps the most recent entry resident: a single entry larger
	// than the whole budget (a huge cluster's factor) still caches — the
	// budget bounds accumulation, not admission — and the store can never
	// evict the artifact it was just asked to keep.
	for s.ll.Len() > s.capacity ||
		(s.maxBytes > 0 && s.bytes > s.maxBytes && s.ll.Len() > 1) {
		tail := s.ll.Back()
		te := tail.Value.(*clusterEntry)
		s.ll.Remove(tail)
		delete(s.items, te.key)
		s.bytes -= te.bytes
		s.evicted.Add(1)
	}
}

// GetCluster implements shard.ClusterCache. It counts a hit only when it
// returns edges; a factor-only entry is a miss.
func (s *ClusterStore) GetCluster(key string) ([][2]int, bool) {
	if e, ok := s.get(key); ok && e.edges != nil {
		s.hits.Add(1)
		return e.edges, true
	}
	s.misses.Add(1)
	return nil, false
}

// AddCluster implements shard.ClusterCache.
func (s *ClusterStore) AddCluster(key string, edges [][2]int) {
	s.upsert(key, func(e *clusterEntry) { e.edges = edges })
}

// GetFactor implements precond.FactorCache. Factor lookups ride the same
// entries but are not counted as cluster hits/misses — the headline
// reuse metric is the sparsifier-rebuild one. No engine path stores a
// factor; kept for perfbench/replay.go until ROADMAP item 11.
func (s *ClusterStore) GetFactor(key string) (*chol.Factor, []int, bool) {
	if e, ok := s.get(key); ok && e.factor != nil {
		return e.factor, e.factorIdx, true
	}
	return nil, nil, false
}

// AddFactor implements precond.FactorCache. Kept for
// perfbench/replay.go until ROADMAP item 11.
func (s *ClusterStore) AddFactor(key string, f *chol.Factor, idx []int) {
	s.upsert(key, func(e *clusterEntry) { e.factor, e.factorIdx = f, idx })
}

// Len returns the number of cached cluster entries.
func (s *ClusterStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Capacity returns the configured maximum entry count.
func (s *ClusterStore) Capacity() int { return s.capacity }

// Bytes returns the accounted footprint of resident entries.
func (s *ClusterStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// MaxBytes returns the configured byte budget (0 = unbounded).
func (s *ClusterStore) MaxBytes() int64 { return s.maxBytes }

// Hits and Misses report counted sparsifier-edge lookups; Evictions the
// entries dropped by LRU pressure.
func (s *ClusterStore) Hits() int64      { return s.hits.Load() }
func (s *ClusterStore) Misses() int64    { return s.misses.Load() }
func (s *ClusterStore) Evictions() int64 { return s.evicted.Load() }

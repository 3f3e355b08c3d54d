package engine

import (
	"sync/atomic"

	"repro/internal/tdigest"
)

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	// Cache behaviour.
	Hits      int64 `json:"cache_hits"`
	Misses    int64 `json:"cache_misses"`
	Builds    int64 `json:"builds"`
	Evictions int64 `json:"evictions"`
	CacheLen  int   `json:"cache_len"`
	CacheCap  int   `json:"cache_cap"`
	// Sharded-pipeline behaviour: how many builds went through the
	// partition-parallel path, the total cluster count they produced,
	// and how many plans the expander guard abandoned (high cut
	// fraction → monolithic fallback).
	ShardedBuilds  int64 `json:"sharded_builds"`
	ShardsBuilt    int64 `json:"shards_built"`
	AbandonedPlans int64 `json:"abandoned_plans"`
	// Incremental-rebuild behaviour: delta rebuilds served, clusters
	// whose cached sparsifier was adopted verbatim across all builds, and
	// the cluster store's own hit/miss/eviction accounting (one lookup
	// per planned cluster per sharded build).
	IncrementalBuilds int64 `json:"incremental_builds"`
	ClustersReused    int64 `json:"clusters_reused"`
	// PrecondReorders counts incremental builds whose monolithic
	// refactor passed the reorder bound (factor fill over 9/8 of the
	// last fresh ordering's), so L_P was ordered afresh.
	PrecondReorders  int64 `json:"precond_reorders"`
	ClusterHits      int64 `json:"cluster_hits"`
	ClusterMisses    int64 `json:"cluster_misses"`
	ClusterEvictions int64 `json:"cluster_evictions"`
	ClusterCacheLen  int   `json:"cluster_cache_len"`
	ClusterCacheCap  int   `json:"cluster_cache_cap"`
	// ClusterCacheBytes is the cluster store's accounted artifact
	// footprint; ClusterCacheMaxBytes the configured byte budget
	// (0 = count-bounded only).
	ClusterCacheBytes    int64 `json:"cluster_cache_bytes"`
	ClusterCacheMaxBytes int64 `json:"cluster_cache_max_bytes"`
	// Solve-batching behaviour: block solves executed (window-coalesced
	// batches plus explicit batched requests), requests that joined an
	// already-open coalescing batch instead of solving alone, and the
	// exact batch-width percentiles over executed batches. A healthy
	// coalescing deployment shows BatchP50 > 1 under concurrent load;
	// BatchP50 == 1 means the window never caught two requests together.
	SolveBatches    int64   `json:"solve_batches"`
	SolvesCoalesced int64   `json:"solves_coalesced"`
	BatchP50        float64 `json:"batch_p50"`
	BatchP95        float64 `json:"batch_p95"`
	// Job behaviour.
	Jobs      int64 `json:"jobs_total"`
	InFlight  int64 `json:"jobs_in_flight"`
	Timeouts  int64 `json:"job_timeouts"`
	JobErrors int64 `json:"job_errors"`
	// Latency of completed jobs (queue wait + work), EXCLUDING
	// incremental delta rebuilds: those are fast by design, and folding
	// them into the same track would drag the percentiles down until
	// they stopped describing the cold path once delta traffic dominates.
	// Each track reports its exact count and mean plus t-digest
	// percentiles in microseconds, which resolve sub-millisecond tails.
	LatencyCount  int64   `json:"latency_count"`
	MeanLatencyMS float64 `json:"mean_latency_ms"`
	P50LatencyUS  float64 `json:"p50_latency_us"`
	P95LatencyUS  float64 `json:"p95_latency_us"`
	P99LatencyUS  float64 `json:"p99_latency_us"`
	// The same latency block for incremental (Update) builds only.
	IncrementalLatencyCount  int64   `json:"incremental_latency_count"`
	IncrementalMeanLatencyMS float64 `json:"incremental_mean_latency_ms"`
	IncrementalP50LatencyUS  float64 `json:"incremental_p50_latency_us"`
	IncrementalP95LatencyUS  float64 `json:"incremental_p95_latency_us"`
	IncrementalP99LatencyUS  float64 `json:"incremental_p99_latency_us"`
	// Streaming-session behaviour (/v2/stream): open sessions, rebuilds
	// applied across all sessions, pushes that merged into an already
	// pending rebuild instead of paying their own, pushes refused for
	// backpressure, and the per-update rebuild latency block.
	StreamSessions     int     `json:"stream_sessions"`
	StreamUpdates      int64   `json:"stream_updates"`
	StreamCoalesced    int64   `json:"stream_coalesced"`
	StreamBackpressure int64   `json:"stream_backpressure"`
	StreamLatencyCount int64   `json:"stream_latency_count"`
	StreamMeanMS       float64 `json:"stream_mean_latency_ms"`
	StreamP50US        float64 `json:"stream_p50_latency_us"`
	StreamP95US        float64 `json:"stream_p95_latency_us"`
	StreamP99US        float64 `json:"stream_p99_latency_us"`
}

// HitRate returns the cache hit fraction (0 when no lookups happened).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// counters aggregates the engine's mutable telemetry.
type counters struct {
	hits               atomic.Int64
	misses             atomic.Int64
	builds             atomic.Int64
	shardedBuilds      atomic.Int64
	shardsBuilt        atomic.Int64
	abandonedPlans     atomic.Int64
	incrementalBuilds  atomic.Int64
	clustersReused     atomic.Int64
	precondReorders    atomic.Int64
	solveBatches       atomic.Int64
	solvesCoalesced    atomic.Int64
	batchSizes         [batchSizeCap + 1]atomic.Int64
	jobs               atomic.Int64
	inFlight           atomic.Int64
	timeouts           atomic.Int64
	jobErrors          atomic.Int64
	streamUpdates      atomic.Int64
	streamCoalesced    atomic.Int64
	streamBackpressure atomic.Int64
	latency            tdigest.Recorder
	incLatency         tdigest.Recorder
	streamLatency      tdigest.Recorder
}

// batchSizeCap bounds the exact batch-width distribution; batches wider
// than this (possible only with an explicit CoalesceMaxBatch above it or
// a wide client-supplied rhs array) clamp into the last slot, keeping
// the percentiles conservative rather than wrong.
const batchSizeCap = 64

// observeBatchSize records one executed block solve's width (in
// right-hand sides) into the exact size distribution.
func (c *counters) observeBatchSize(s int) {
	if s < 1 {
		return
	}
	if s > batchSizeCap {
		s = batchSizeCap
	}
	c.batchSizes[s].Add(1)
}

// batchPercentile returns the smallest batch width whose cumulative
// count reaches the q-quantile of the exact size distribution (0 when
// no batches ran). Widths are small integers and the exact counts are
// kept, so the answer is the true order statistic.
func batchPercentile(counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for s, c := range counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			return float64(s)
		}
	}
	return float64(len(counts) - 1)
}

func (c *counters) snapshot() Stats {
	s := Stats{
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Builds:            c.builds.Load(),
		ShardedBuilds:     c.shardedBuilds.Load(),
		ShardsBuilt:       c.shardsBuilt.Load(),
		AbandonedPlans:    c.abandonedPlans.Load(),
		IncrementalBuilds: c.incrementalBuilds.Load(),
		ClustersReused:    c.clustersReused.Load(),
		PrecondReorders:   c.precondReorders.Load(),
		SolveBatches:      c.solveBatches.Load(),
		SolvesCoalesced:   c.solvesCoalesced.Load(),
		Jobs:              c.jobs.Load(),
		InFlight:          c.inFlight.Load(),
		Timeouts:          c.timeouts.Load(),
		JobErrors:         c.jobErrors.Load(),
	}
	sizes := make([]int64, len(c.batchSizes))
	for i := range c.batchSizes {
		sizes[i] = c.batchSizes[i].Load()
	}
	s.BatchP50 = batchPercentile(sizes, 0.50)
	s.BatchP95 = batchPercentile(sizes, 0.95)
	l := c.latency.Snapshot()
	s.LatencyCount, s.MeanLatencyMS, s.P50LatencyUS, s.P95LatencyUS, s.P99LatencyUS = l.Count, l.MeanMS, l.P50US, l.P95US, l.P99US
	l = c.incLatency.Snapshot()
	s.IncrementalLatencyCount, s.IncrementalMeanLatencyMS = l.Count, l.MeanMS
	s.IncrementalP50LatencyUS, s.IncrementalP95LatencyUS, s.IncrementalP99LatencyUS = l.P50US, l.P95US, l.P99US
	s.StreamUpdates = c.streamUpdates.Load()
	s.StreamCoalesced = c.streamCoalesced.Load()
	s.StreamBackpressure = c.streamBackpressure.Load()
	l = c.streamLatency.Snapshot()
	s.StreamLatencyCount, s.StreamMeanMS, s.StreamP50US, s.StreamP95US, s.StreamP99US = l.Count, l.MeanMS, l.P50US, l.P95US, l.P99US
	return s
}

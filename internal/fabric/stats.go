package fabric

// WorkerHealth is the coordinator's view of one fleet member.
type WorkerHealth struct {
	URL string `json:"url"`
	// Up is false while the worker sits in its failure cooldown
	// (FailAfter consecutive failures tripped; it will be probed again
	// after ProbeAfter).
	Up bool `json:"up"`
	// Dispatched counts requests sent to this worker (retries and
	// hedges included); Retried those that were retry attempts, Hedged
	// those that were hedges, Failed the ones that errored (transport,
	// non-2xx, or malformed results).
	Dispatched int64 `json:"dispatched"`
	Retried    int64 `json:"retried"`
	Hedged     int64 `json:"hedged"`
	// HedgedWasted counts races this worker lost after being dispatched:
	// the other side answered first and this worker's in-flight request
	// (even a late success) was discarded. Dispatched − HedgedWasted −
	// Failed is the worker's useful-work count; without this column the
	// loser's late success inflated Dispatched with no offsetting signal.
	HedgedWasted int64 `json:"hedged_wasted"`
	Failed       int64 `json:"failed"`
	// LastError describes the most recent failure (empty when the
	// worker has never failed); LastErrorUnixMS its wall-clock time.
	LastError       string `json:"last_error,omitempty"`
	LastErrorUnixMS int64  `json:"last_error_unix_ms,omitempty"`
}

// Stats is a point-in-time snapshot of the Remote dispatcher's fleet
// telemetry: per-worker health and counters, degradation totals, and the
// remote-dispatch latency distribution (successful calls only — a
// timeout would otherwise read as a fast observation at cancel time).
type Stats struct {
	Workers []WorkerHealth `json:"workers"`
	// RemoteClusters counts cluster builds answered by the fleet;
	// FallbackLocal those that degraded to the in-process dispatcher
	// (fleet down, retries exhausted). FallbackLocal > 0 is the
	// operator's early-warning signal: the build still succeeded, but
	// capacity silently moved back onto the coordinator.
	RemoteClusters int64 `json:"remote_clusters"`
	FallbackLocal  int64 `json:"fallback_local"`
	// RemoteFactors counts Schwarz factor blocks the fleet factorized;
	// FactorMisses the factor dispatches that failed (fleet down, retries
	// exhausted, validation rejected the factor) and fell back to a local
	// factorization inside the Schwarz builder. Like FallbackLocal, a
	// nonzero FactorMisses means the build succeeded with capacity
	// silently back on the coordinator.
	RemoteFactors int64 `json:"remote_factors"`
	FactorMisses  int64 `json:"factor_misses"`
	// PeerFetches counts one-hop peer cache fetches workers reported
	// attempting after a membership change moved a key; PeerHits the ones
	// the previous owner served (no rebuild). MembershipEpoch is the
	// current epoch counter — it bumps on every observed change of the
	// up-set.
	PeerFetches     int64 `json:"peer_fetches"`
	PeerHits        int64 `json:"peer_hits"`
	MembershipEpoch int64 `json:"membership_epoch"`

	MeanLatencyMS float64 `json:"remote_mean_latency_ms"`
	P50LatencyUS  float64 `json:"remote_p50_latency_us"`
	P95LatencyUS  float64 `json:"remote_p95_latency_us"`
	P99LatencyUS  float64 `json:"remote_p99_latency_us"`
}

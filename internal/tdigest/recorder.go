package tdigest

import (
	"sync"
	"time"
)

// Recorder is a concurrency-safe latency recorder: one digest of the
// observations in microseconds plus their exact count and sum. The zero
// value is ready to use. Observe and Snapshot each take one short mutex
// hold, so engine jobs and fleet dispatches can share a Recorder.
type Recorder struct {
	mu  sync.Mutex
	td  *TDigest
	n   int64
	sum time.Duration
}

// Summary is a point-in-time view of a Recorder: the exact count and
// mean, and digest percentiles in microseconds (all zero when empty).
type Summary struct {
	Count               int64
	MeanMS              float64
	P50US, P95US, P99US float64
}

// Observe records one latency.
func (r *Recorder) Observe(d time.Duration) {
	r.mu.Lock()
	if r.td == nil {
		r.td = New(100)
	}
	r.td.Add(float64(d) / float64(time.Microsecond))
	r.n++
	r.sum += d
	r.mu.Unlock()
}

// Snapshot summarizes every observation recorded so far.
func (r *Recorder) Snapshot() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return Summary{}
	}
	return Summary{
		Count:  r.n,
		MeanMS: float64(r.sum) / float64(r.n) / float64(time.Millisecond),
		P50US:  r.td.Quantile(0.50),
		P95US:  r.td.Quantile(0.95),
		P99US:  r.td.Quantile(0.99),
	}
}

// Package tdigest implements the merging t-digest of Dunning & Ertl
// ("Computing extremely accurate quantiles using t-digests",
// arXiv:1902.04023): a fixed-memory sketch of a distribution whose
// quantile error is relative to q(1-q), so tail quantiles (p99 and
// beyond) stay accurate even when the bulk of the mass sits three
// orders of magnitude away — exactly the failure mode of fixed-bucket
// latency histograms, where every sub-bucket observation rounds to the
// same edge. Recorder wraps one digest with an exact count and sum for
// the engine's latency tracks.
//
// The implementation is the merging variant: points accumulate in a
// small buffer and are merged into the sorted centroid list in one
// O(n log n) pass when the buffer fills, bounding both memory and
// amortized per-observation cost. The k1 (arcsine) scale function caps
// centroid count at ~2·compression. Digests are not safe for
// concurrent use; callers serialize access (Recorder does).
package tdigest

import (
	"math"
	"sort"
)

type centroid struct {
	mean   float64
	weight float64
}

// TDigest is a merging t-digest. The zero value is not usable; call New.
type TDigest struct {
	compression float64
	centroids   []centroid // sorted by mean
	buf         []float64  // unmerged observations
	count       float64    // merged weight (excludes buf)
	min, max    float64
}

// New returns an empty digest. Compression trades memory for accuracy;
// 100 keeps ~200 centroids and holds p99 within a fraction of a percent
// of mass, which is far below measurement noise for latencies.
func New(compression float64) *TDigest {
	if compression < 10 {
		compression = 10
	}
	return &TDigest{
		compression: compression,
		buf:         make([]float64, 0, 4*int(compression)),
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Add records one observation. NaN and ±Inf are ignored.
func (t *TDigest) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	t.buf = append(t.buf, x)
	if len(t.buf) == cap(t.buf) {
		t.flush()
	}
}

// Count reports the number of observations recorded.
func (t *TDigest) Count() int64 {
	return int64(t.count) + int64(len(t.buf))
}

// k is the k1 scale function: k(q) = (δ/2π)·asin(2q−1). Its derivative
// blows up at q∈{0,1}, forcing singleton centroids at the tails.
func (t *TDigest) k(q float64) float64 {
	return t.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

func (t *TDigest) flush() {
	if len(t.buf) == 0 {
		return
	}
	sort.Float64s(t.buf)
	total := t.count + float64(len(t.buf))

	// Two-pointer merge of the sorted buffer with the sorted centroid
	// list, greedily growing each output centroid while the scale
	// function allows (k(q_right) − k(q_left) ≤ 1).
	out := make([]centroid, 0, len(t.centroids)+1)
	bi, ci := 0, 0
	next := func() (centroid, bool) {
		switch {
		case bi < len(t.buf) && (ci >= len(t.centroids) || t.buf[bi] <= t.centroids[ci].mean):
			c := centroid{mean: t.buf[bi], weight: 1}
			bi++
			return c, true
		case ci < len(t.centroids):
			c := t.centroids[ci]
			ci++
			return c, true
		}
		return centroid{}, false
	}

	cur, ok := next()
	if !ok {
		return
	}
	qLeft := 0.0
	kLeft := t.k(qLeft)
	for {
		c, ok := next()
		if !ok {
			break
		}
		qRight := qLeft + (cur.weight+c.weight)/total
		if t.k(qRight)-kLeft <= 1 {
			// Absorb: weighted-mean update keeps the merge stable.
			cur.weight += c.weight
			cur.mean += c.weight / cur.weight * (c.mean - cur.mean)
			continue
		}
		out = append(out, cur)
		qLeft += cur.weight / total
		kLeft = t.k(qLeft)
		cur = c
	}
	out = append(out, cur)

	t.centroids = out
	t.count = total
	t.buf = t.buf[:0]
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]).
// Returns 0 for an empty digest.
func (t *TDigest) Quantile(q float64) float64 {
	t.flush()
	if t.count == 0 {
		return 0
	}
	if q <= 0 {
		return t.min
	}
	if q >= 1 {
		return t.max
	}
	cs := t.centroids
	if len(cs) == 1 {
		return cs[0].mean
	}

	// Each centroid's mass is centered on its mean: centroid i spans
	// cumulative weight [cum − w/2, cum + w/2). Interpolate linearly
	// between adjacent midpoints, clamping the ends to min/max.
	target := q * t.count
	cum := 0.0
	for i, c := range cs {
		mid := cum + c.weight/2
		if target < mid {
			if i == 0 {
				// Below the first midpoint: interpolate from min.
				if c.weight <= 1 || mid == 0 {
					return t.min
				}
				frac := target / mid
				return t.min + frac*(c.mean-t.min)
			}
			prev := cs[i-1]
			prevMid := cum - prev.weight/2
			frac := (target - prevMid) / (mid - prevMid)
			return prev.mean + frac*(c.mean-prev.mean)
		}
		cum += c.weight
	}
	// Above the last midpoint: interpolate toward max.
	last := cs[len(cs)-1]
	lastMid := t.count - last.weight/2
	if t.count == lastMid {
		return t.max
	}
	frac := (target - lastMid) / (t.count - lastMid)
	return last.mean + frac*(t.max-last.mean)
}

// Reset empties the digest for reuse.
func (t *TDigest) Reset() {
	t.centroids = t.centroids[:0]
	t.buf = t.buf[:0]
	t.count = 0
	t.min = math.Inf(1)
	t.max = math.Inf(-1)
}

package tdigest

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestRecorderSnapshot(t *testing.T) {
	repeat := func(d time.Duration, n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = d
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		obs       []time.Duration
		wantCount int64
		wantMean  float64 // ms, exact
		wantP50   float64 // µs, within 1%
	}{
		{name: "empty"},
		{
			name:      "mean-exact",
			obs:       []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond},
			wantCount: 4,
			wantMean:  4,
			wantP50:   2500,
		},
		{
			// Sub-millisecond latencies: fixed millisecond buckets
			// flattened all of these into "≤ 1 ms".
			name:      "sub-millisecond",
			obs:       repeat(300*time.Microsecond, 1000),
			wantCount: 1000,
			wantMean:  0.3,
			wantP50:   300,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r Recorder
			for _, d := range tc.obs {
				r.Observe(d)
			}
			s := r.Snapshot()
			if s.Count != tc.wantCount {
				t.Errorf("count = %d, want %d", s.Count, tc.wantCount)
			}
			if math.Abs(s.MeanMS-tc.wantMean) > 1e-12 {
				t.Errorf("mean = %g ms, want %g", s.MeanMS, tc.wantMean)
			}
			if tc.wantCount == 0 {
				if s != (Summary{}) {
					t.Errorf("empty recorder reports %+v, want zeros", s)
				}
				return
			}
			if math.Abs(s.P50US-tc.wantP50) > 0.01*tc.wantP50 {
				t.Errorf("p50 = %g µs, want %g ±1%%", s.P50US, tc.wantP50)
			}
			if s.P50US > s.P95US || s.P95US > s.P99US {
				t.Errorf("percentiles out of order: %+v", s)
			}
		})
	}
}

// TestRecorderConcurrent: observations and snapshots from many goroutines
// serialize on the recorder's lock (run under -race) and lose nothing.
func TestRecorderConcurrent(t *testing.T) {
	const goroutines, each = 8, 500
	var r Recorder
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Observe(time.Duration(g*each+i+1) * time.Microsecond)
				if i%50 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Count != goroutines*each {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*each)
	}
	// Observations are 1..4000 µs: mean 2000.5 µs.
	if math.Abs(s.MeanMS-2.0005) > 1e-9 {
		t.Fatalf("mean = %g ms, want 2.0005", s.MeanMS)
	}
}

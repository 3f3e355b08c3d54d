package main

import (
	"math"
	"testing"
)

func TestTailLeavesTenSamplesAbove(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // descending input: tail must sort
	}
	got, err := tail(xs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 29 || got.Pct != 75 || got.N != 40 {
		t.Fatalf("tail = %+v, want value 29 at p75 of 40", got)
	}
	above := 0
	for _, x := range xs {
		if x > got.Value {
			above++
		}
	}
	if above != tailBeyond {
		t.Fatalf("%d samples above the tail, want %d", above, tailBeyond)
	}
}

func TestTimingMetricsNeedTwentySamples(t *testing.T) {
	xs := make([]float64, minTimingSamples-1)
	if _, err := tail(xs); err == nil {
		t.Error("tail of 19 samples should fail")
	}
	if _, err := p50(xs); err == nil {
		t.Error("median of 19 samples should fail")
	}
	m := &metricSet{}
	m.p50("x_ms", xs)
	if m.err == nil {
		t.Error("metricSet should record the short sample")
	}
	if v, err := p50(append(xs, 1)); err != nil || v != 0 {
		t.Errorf("p50 of 20 samples = %v, %v", v, err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 6},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 8, End: 12}, // runs past root
		{ID: 5, Parent: 2, Name: "d", Start: 2, End: 3},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 10 - 5 - 2, 2: 2, 3: 3, 4: 4, 5: 1} {
		if math.Abs(self[id]-want) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

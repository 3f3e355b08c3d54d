package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile: a tail read off fewer would be one noisy sample.
const tailBeyond = 10

// minTimingSamples is the fewest samples any timing metric may be
// computed from within one run.
const minTimingSamples = 20

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values for
// even counts); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tail is the highest percentile of xs that still has tailBeyond samples
// above it: the value with exactly tailBeyond larger samples, its
// percentile rank, and the sample count it came from. It refuses sample
// sets too small to carry a tail distinct from the median.
type tailStat struct {
	Value float64
	Pct   float64
	N     int
}

func tail(xs []float64) (tailStat, error) {
	n := len(xs)
	if n < minTimingSamples {
		return tailStat{}, fmt.Errorf("tail needs at least %d samples, have %d", minTimingSamples, n)
	}
	s := sorted(xs)
	k := n - 1 - tailBeyond
	return tailStat{Value: s[k], Pct: 100 * float64(n-tailBeyond) / float64(n), N: n}, nil
}

// p50 is median with the minimum-sample rule applied.
func p50(xs []float64) (float64, error) {
	if len(xs) < minTimingSamples {
		return 0, fmt.Errorf("median needs at least %d samples, have %d", minTimingSamples, len(xs))
	}
	return median(xs), nil
}

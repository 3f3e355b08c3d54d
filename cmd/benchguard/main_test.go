package main

import (
	"math"
	"testing"
)

// TestGateHoldsWholeNameOrSubBenchmark: a gate holds the benchmark it
// names and that benchmark's sub-benchmarks, never a longer name that
// merely starts with it.
func TestGateHoldsWholeNameOrSubBenchmark(t *testing.T) {
	for _, c := range []struct {
		gate, name string
		holds      bool
	}{
		{"BenchmarkStreamUpdate/patched", "BenchmarkStreamUpdate/patched/x", true},
		{"BenchmarkStreamUpdate/patched", "BenchmarkStreamUpdate/patched-x", false},
		{"BenchmarkStreamUpdate/patched", "BenchmarkStreamUpdate/legacy", false},
		{"BenchmarkSparsifierSolve", "BenchmarkSparsifierSolve", true},
		{"BenchmarkSparsifierSolve", "BenchmarkSparsifierSolve/handle-reuse", true},
		{"BenchmarkSparsifierSolve", "BenchmarkSparsifierSolveBatch", false},
		{"BenchmarkSparsifierSolve", "XBenchmarkSparsifierSolve", false},
		{"BenchmarkSolveThroughput/block", "BenchmarkSolveThroughput/block", true},
		{"BenchmarkSolveThroughput/block", "BenchmarkSolveThroughput/block-wide", false},
		{"BenchmarkStreamUpdate/patched", "BenchmarkStreamUpdate/patched", true},
		{"BenchmarkStreamUpdate/(patched|session)", "BenchmarkStreamUpdate/session", true},
		{"BenchmarkStreamUpdate/(patched|session)", "BenchmarkStreamUpdate/legacy", false},
		{"BenchmarkERSparsify/er", "BenchmarkERSparsify/er/x", true},
	} {
		var g gateFlags
		if err := g.Set(c.gate + "=1.40"); err != nil {
			t.Fatal(err)
		}
		limit := g.limitFor(c.name)
		if holds := !math.IsInf(limit, 1); holds != c.holds {
			t.Errorf("gate %q on %q: holds=%v, want %v", c.gate, c.name, holds, c.holds)
		}
	}
}

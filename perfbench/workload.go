package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/gen"
	"repro/internal/graph"
)

type opKind int

const (
	opBuild opKind = iota // POST /v2/sparsify
	opPush                // POST /v2/stream/{id}?wait=1
	opSolve               // POST /v2/solve, one right-hand side
	opBatch               // POST /v2/solve, batchWidth right-hand sides
	numOps
)

var opNames = [numOps]string{"build", "update", "solve", "batch"}

const (
	batchWidth = 8
	solveTol   = 1e-6
)

// step is one request of a workload's fixed sequence. Inputs are kept
// as seeds or small deltas so the same sequence can be replayed
// in-process without holding every vector in memory.
type step struct {
	kind     opKind
	measured bool
	// opBuild: fresh, when non-nil, generates a new graph; otherwise the
	// request carries the current graph (a repeat POST).
	fresh func() (*graph.Graph, int)
	// opPush: the edit.
	delta graph.Delta
	// opSolve, opBatch: seed of the first right-hand side.
	rhsSeed int64
	// session selects which of the workload's graphs, each with its own
	// stream session, the request concerns.
	session int
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	why  string
	// shardThreshold, cache and clusterCache are the server's
	// -shard-threshold, -cache and -cluster-cache flags (0 keeps the
	// default).
	shardThreshold, cache, clusterCache int
	// setup returns the requests every server start runs before the
	// clock: base builds and warm-up on inputs the measured requests do
	// not reuse.
	setup func(w *world) []step
	// cycle returns the measured requests of cycle i.
	cycle func(w *world, i int) []step
	// edit draws the concrete edit of the workload's push number k.
	edit func(w *world, k int, rng *rand.Rand) graph.Delta
	// minSamples is how many samples of each request kind the measured
	// phase of an untraced run must collect before it may stop; a traced
	// run stops at minTimingSamples of each.
	minSamples [numOps]int
}

// batchCycles is how many cycles, from the first, end with a batch
// solve: the 20 batches every run needs, and all of them within the
// first 20 cycles, which is where a traced run stops.
const batchCycles = minTimingSamples

func (wl *workload) serverFlags() []string {
	var f []string
	if wl.shardThreshold > 0 {
		f = append(f, "-shard-threshold", strconv.Itoa(wl.shardThreshold))
	}
	if wl.cache > 0 {
		f = append(f, "-cache", strconv.Itoa(wl.cache))
	}
	if wl.clusterCache > 0 {
		f = append(f, "-cluster-cache", strconv.Itoa(wl.clusterCache))
	}
	return f
}

// world is the driver-side state a workload's step generators read: the
// seed and the model of the graph currently served.
type world struct {
	seed int64
	cur  *model
	on   bool // solve-hot: whether the toggle window is doubled
}

func (w *world) rng(i int) *rand.Rand {
	return rand.New(rand.NewSource(w.seed*1_000_003 + int64(i)))
}

func (w *world) rhsSeed(i, k int) int64 { return w.seed*7_919_000 + int64(i)*64 + int64(k) }

// Sizes. Every workload issues every request kind, so a run pays for at
// least 30 builds, edits and solves and 20 batches; these sizes keep the
// measured phase near 15 seconds on two cores. The artifact caches are
// bounded so the server's memory reaches its plateau early in the run.
const (
	coldSide     = 112 // 12.5k vertices: 4 clusters at shardAt
	streamSide   = 128 // 16k vertices: 4 clusters at shardAt
	meshSide     = 128
	circuitExtra = 0.08 // gen's G3_circuit shortcut fraction
	shardAt      = 4096
	artifactCap  = 8
	clusterCap   = 48
)

// circuit returns a generator for a distinct circuit grid per index.
func circuit(side int, seed int64, i int) func() (*graph.Graph, int) {
	return func() (*graph.Graph, int) {
		return gen.CircuitGrid(side, side, circuitExtra, seed*10_007+int64(i)), side
	}
}

var workloads = []*workload{
	{
		name: "build-cold",
		why: "every request builds a new sharded circuit grid, so plan, per-cluster Algorithm 2, stitch, assembly " +
			"and Schwarz factorization dominate and every cache lookup misses",
		shardThreshold: shardAt,
		cache:          artifactCap,
		clusterCache:   clusterCap,
		setup: func(w *world) []step {
			return coldCycle(w, -1, false)
		},
		cycle: func(w *world, i int) []step {
			return coldCycle(w, i, true)
		},
		edit: func(w *world, _ int, rng *rand.Rand) graph.Delta {
			return w.cur.reweight(rng)
		},
		minSamples: [numOps]int{opBuild: 30, opPush: 30, opSolve: 30, opBatch: 20},
	},
	{
		name: "update-stream",
		why: "four stream sessions edit four sharded circuit grids in turn, so plan reuse, localized stitch, Laplacian patching " +
			"and cluster and factor reuse dominate; no full-graph Algorithm 2 runs",
		shardThreshold: shardAt,
		cache:          artifactCap,
		clusterCache:   clusterCap,
		setup: func(w *world) []step {
			// Every session gets its base and a first edit, which opens
			// its stream; session 0 then warms the remaining paths.
			var steps []step
			for j := 0; j < streamSessions; j++ {
				steps = append(steps,
					step{kind: opBuild, fresh: circuit(streamSide, w.seed, -1-j), session: j},
					step{kind: opPush, delta: lazyDelta, session: j})
			}
			return append(steps,
				step{kind: opSolve, rhsSeed: w.rhsSeed(-1, 0)},
				step{kind: opBuild},
				step{kind: opBatch, rhsSeed: w.rhsSeed(-1, 1)})
		},
		cycle: func(w *world, i int) []step {
			return streamCycle(w, i, true)
		},
		edit: func(w *world, k int, rng *rand.Rand) graph.Delta {
			// Three reweights for every structural edit; structural
			// edits alternate between removing and adding one shortcut.
			switch k % 8 {
			case 3:
				return w.cur.removeShortcut(rng)
			case 7:
				return w.cur.addShortcut(rng)
			}
			return w.cur.reweight(rng)
		},
		minSamples: [numOps]int{opBuild: 80, opPush: 40, opSolve: 40, opBatch: 20},
	},
	{
		name: "solve-hot",
		why: "many solves against one cached monolithic mesh artifact, so triangular solves, SpMV and PCG vector " +
			"work, block PCG and the JSON of x dominate; builds and edits all hit the cache",
		setup: func(w *world) []step {
			steps := []step{{kind: opBuild, fresh: func() (*graph.Graph, int) {
				return gen.Tri2D(meshSide, meshSide, w.seed), meshSide
			}}}
			// Build both toggle states once so every measured edit and
			// repeat POST is a cache hit, then warm the solve paths on
			// right-hand sides the measured phase does not use.
			return append(steps, hotCycle(w, -1, false)...)
		},
		cycle: func(w *world, i int) []step {
			return hotCycle(w, i, true)
		},
		edit: func(w *world, _ int, _ *rand.Rand) graph.Delta {
			w.on = !w.on
			return w.cur.toggle(w.on)
		},
		minSamples: [numOps]int{opBuild: 30, opPush: 30, opSolve: 180, opBatch: 20},
	},
}

// withBatch ends cycle i with a batch solve on the current artifact
// while i < batchCycles (the warm-up cycle, i = -1, included).
func withBatch(w *world, i int, measured bool, steps []step) []step {
	if i < batchCycles {
		steps = append(steps, step{kind: opBatch, rhsSeed: w.rhsSeed(i, 63), measured: measured})
	}
	return steps
}

// coldCycle: build a fresh grid, solve on it, edit it once through a
// new stream session, and batch-solve the edited artifact.
func coldCycle(w *world, i int, measured bool) []step {
	return withBatch(w, i, measured, []step{
		{kind: opBuild, fresh: circuit(coldSide, w.seed, i), measured: measured},
		{kind: opSolve, rhsSeed: w.rhsSeed(i, 0), measured: measured},
		{kind: opPush, measured: measured, delta: lazyDelta},
	})
}

// streamSessions is how many graphs update-stream edits, each through
// its own stream session, in turn. A session's solves slow down as its
// edits accumulate; spreading the edits over four sessions keeps a run's
// median from hinging on how far one seed's single session drifted.
const streamSessions = 4

// streamCycle, on session i mod streamSessions: a repeat POST of the
// session's graph, which must hit the artifact its last edit produced;
// one edit (three window reweights for every shortcut removal or
// addition); a solve on the new artifact; a repeat POST that must hit
// that artifact; and a batch solve. A repeat POST is short next to an
// edit, so the cycle sends two to give its median 80 samples.
func streamCycle(w *world, i int, measured bool) []step {
	steps := withBatch(w, i, measured, []step{
		{kind: opBuild, measured: measured},
		{kind: opPush, measured: measured, delta: lazyDelta},
		{kind: opSolve, rhsSeed: w.rhsSeed(i, 0), measured: measured},
		{kind: opBuild, measured: measured},
	})
	for k := range steps {
		steps[k].session = i % streamSessions
	}
	return steps
}

// hotCycle: toggle the mesh window (a cache hit once both states exist),
// repeat-POST the current mesh, six single solves and a batch solve.
func hotCycle(w *world, i int, measured bool) []step {
	steps := []step{
		{kind: opPush, measured: measured, delta: lazyDelta},
		{kind: opBuild, measured: measured},
	}
	for k := 0; k < 6; k++ {
		steps = append(steps, step{kind: opSolve, rhsSeed: w.rhsSeed(i, k), measured: measured})
	}
	return withBatch(w, i, measured, steps)
}

// lazyDelta marks a push whose edit is drawn from the model when the
// step runs: edits depend on the graph state earlier edits left.
var lazyDelta = graph.Delta{Remove: [][2]int{{-1, -1}}}

func isLazy(d graph.Delta) bool {
	return len(d.Remove) == 1 && d.Remove[0] == [2]int{-1, -1} && len(d.Set) == 0
}

func workloadByName(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

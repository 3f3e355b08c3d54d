// Package trsparse is a from-scratch Go implementation of graph spectral
// sparsification via approximate trace reduction (Liu & Yu, DAC 2022,
// arXiv:2206.06223), together with the GRASS and feGRASS baselines, a
// sparse Cholesky / PCG solver stack, synthetic benchmark generators, a
// power-grid transient simulator, and spectral partitioning — everything
// needed to regenerate the paper's evaluation.
//
// # Quick start
//
// The unit of work is a Sparsifier handle: build it once, measure through
// it many times. Construction runs the paper's Algorithm 2 and factorizes
// the result; every method reuses that factorization and honors the
// context for cancellation.
//
//	g := trsparse.Grid2D(300, 300, 1)             // a weighted 2D grid
//	s, err := trsparse.New(ctx, g,
//	    trsparse.WithAlpha(0.10),                 // paper defaults shown
//	    trsparse.WithTolerance(1e-6))
//	if err != nil { ... }                         // errors.Is: ErrDisconnected, ErrCanceled, ...
//
//	sol, err := s.Solve(ctx, b)                   // PCG through the cached factorization
//	kappa, err := s.CondNumber(ctx)               // κ(L_G, L_P) by generalized Lanczos
//	trace, err := s.TraceProxy(ctx)               // Tr(L_P⁻¹ L_G), the paper's proxy (eq. 5)
//	part, err := s.Partition(ctx)                 // spectral bipartition (§4.3)
//
// The sparsifier is built per the paper's Algorithm 2: a maximum
// effective-weight spanning tree, then five rounds of off-subgraph edge
// recovery ranked by (approximate, truncated) trace reduction of
// Tr(L_S⁻¹ L_G), with spectrally similar edges excluded per round. Use
// WithMethod to select another construction — GRASS (spectral
// perturbation), FeGRASS (tree effective resistance), or MethodER
// (Spielman–Srivastava effective-resistance sampling via
// Johnson–Lindenstrauss sketches, a quality-vs-speed dial tuned with
// WithERSketches / WithEREpsilon) — and WithSparsifierGraph to measure a
// subgraph you built yourself.
//
// Large graphs can be built through the partition-parallel sharded
// pipeline (WithShardThreshold, WithShards): the graph is recursively
// bipartitioned into balanced clusters, each cluster is sparsified
// concurrently, and the pieces are stitched with a cut-edge spanning
// forest plus one global trace-reduction recovery round. Sharded handles
// expose per-shard telemetry via Sparsifier.ShardStats.
//
// When the graph drifts a few edges at a time, Sparsifier.Update applies
// a Delta incrementally instead of rebuilding: the retained plan maps the
// delta onto dirty clusters, untouched clusters' sparsifiers are reused
// verbatim, only the dirty clusters and the stitch are redone, and the
// factor is recomputed only in the rows the edit reaches.
//
// See TUNING.md for how every knob trades build time against solve
// quality, with measured numbers, and a which-config-for-which-graph
// decision table.
//
// For serving workloads, NewEngine wraps the library in a concurrent
// batch engine whose LRU cache holds Sparsifier handles keyed by graph
// fingerprint (and shard configuration), so repeated solves against one
// graph reuse its Cholesky factorization; graphs above the engine's
// MaxVertices are admitted through the sharded pipeline up to a hard
// cap. cmd/trsparsed exposes the engine over HTTP (/v2/*, with
// per-request deadlines).
//
// Evaluate runs the paper's Table-1 pipeline in one call. MIGRATION.md
// maps the removed v1 free functions onto New and handle methods.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for how the
// benchmark suite regenerates every table and figure of the paper.
package trsparse

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/precond"
	"repro/internal/sparsify"
)

// Graph is a weighted undirected graph (vertices 0..N−1, positive edge
// weights).
type Graph = graph.Graph

// Edge is one weighted undirected edge of a Graph.
type Edge = graph.Edge

// Delta is an edge-level modification of a graph over a fixed vertex
// set: Set adds or reweights edges, Remove deletes them. Pass it to
// Sparsifier.Update for an incremental rebuild that reuses every cluster
// the delta did not touch (see TUNING.md for the operational tradeoffs).
type Delta = graph.Delta

// Method selects the sparsification algorithm.
type Method = sparsify.Method

// Sparsification methods.
const (
	// TraceReduction is the paper's algorithm (default).
	TraceReduction = sparsify.TraceReduction
	// GRASS is the spectral-perturbation baseline of Feng (TCAD 2020).
	GRASS = sparsify.GRASS
	// FeGRASS is the effective-resistance baseline of Liu, Yu & Feng
	// (TCAD 2021).
	FeGRASS = sparsify.FeGRASS
	// MethodER is Spielman–Srivastava effective-resistance sampling
	// (arXiv:0803.0929): per-edge resistances are estimated with
	// Johnson–Lindenstrauss sketches solved against one Cholesky factor,
	// then off-tree edges are importance-sampled proportional to
	// w·R_eff with weight reweighting (the spanning tree is always
	// kept). A single-round quality-vs-speed dial: faster to build
	// than trace reduction on large graphs, modestly more PCG
	// iterations at solve time. Tune with WithERSketches and
	// WithEREpsilon; see TUNING.md.
	MethodER = sparsify.ER
)

// Options configures Evaluate's construction; the zero value selects the
// paper's parameters (α = 10%·|V| recovered edges, N_r = 5 rounds, β = 5,
// δ = 0.1). New takes functional options (WithMethod, WithAlpha,
// WithRecoveryRounds, ...); WithSparsifyOptions bridges an Options value.
type Options = sparsify.Options

// Result is a computed sparsifier plus instrumentation. Handles built by
// New expose it via Sparsifier.Result.
type Result = sparsify.Result

// ShardStats is the sharded pipeline's build telemetry: cluster count,
// cut-edge accounting, phase timings, and per-shard sizes. Result.Shards
// (and Sparsifier.ShardStats) is non-nil exactly when the handle was
// built through the sharded path (see WithShardThreshold).
type ShardStats = sparsify.ShardStats

// ShardBuild is one cluster's build telemetry within ShardStats.
type ShardBuild = sparsify.ShardBuild

// Precond selects the preconditioner construction strategy for the
// pencil's sparsifier side (see WithPrecond).
type Precond = precond.Kind

// Preconditioner construction strategies.
const (
	// PrecondAuto (default) picks the monolithic Cholesky for every
	// build, sharded or not.
	PrecondAuto = precond.Auto
	// PrecondMonolithic factorizes the whole sparsifier in one sparse
	// Cholesky.
	PrecondMonolithic = precond.Monolithic
	// PrecondSchwarz builds the two-level additive-Schwarz
	// preconditioner: one factor per cluster plus a coarse cut-coupling
	// correction.
	PrecondSchwarz = precond.Schwarz
)

// PrecondStats is the build telemetry of a handle's preconditioner:
// strategy, per-cluster factor nonzeros, coarse system size, memory, and
// build time (Sparsifier.PrecondStats).
type PrecondStats = precond.Stats

// EvalOptions configures Evaluate's measurements.
type EvalOptions = core.EvalOptions

// Outcome bundles everything the paper's Table 1 reports for one run.
type Outcome = core.Outcome

// NewGraph validates and builds a graph from an edge list; duplicate edges
// are merged by summing weights.
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.New(n, edges) }

// Evaluate sparsifies g and measures sparsifier quality the way the
// paper's Table 1 does: κ(L_G, L_P) by generalized Lanczos and PCG
// iterations/time on a random right-hand side.
func Evaluate(g *Graph, opts Options, eopts EvalOptions) (*Outcome, error) {
	return core.Evaluate(g, opts, eopts)
}

// Pencil is a prepared regularized Laplacian pencil (L_G, L_P): shared
// shift, assembled Laplacians, and a ready preconditioner for the
// sparsifier side — one monolithic Cholesky factorization by default, or
// the sharded additive-Schwarz preconditioner (see WithPrecond). Handles
// built by New carry one; access it via Sparsifier.Pencil.
type Pencil = core.Pencil

// Engine is the concurrent serving layer: a bounded worker pool plus an
// LRU store of built Sparsifier handles keyed by graph fingerprint, so
// repeated Solve/Fiedler/CondNumber requests against the same graph reuse
// the cached Cholesky factorization instead of rebuilding anything.
// cmd/trsparsed serves an Engine over HTTP.
type Engine = engine.Engine

// EngineOptions configures NewEngine (workers, cache size, per-job
// timeout, sparsification parameters); the zero value selects defaults.
type EngineOptions = engine.Options

// EngineStats is a snapshot of engine cache and job telemetry.
type EngineStats = engine.Stats

// EngineArtifact is one cached build: a Sparsifier handle plus its
// fingerprint key and build telemetry.
type EngineArtifact = engine.Artifact

// NewEngine creates a concurrent sparsification engine.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// Grid2D generates an nx×ny 5-point grid with jittered weights — the
// stand-in for grid-like SuiteSparse cases such as ecology2.
func Grid2D(nx, ny int, seed int64) *Graph { return gen.Grid2D(nx, ny, seed) }

// Tri2D generates a structured triangulation (|E| ≈ 3|V|) — the stand-in
// for the paper's 2D finite-element meshes.
func Tri2D(nx, ny int, seed int64) *Graph { return gen.Tri2D(nx, ny, seed) }

// CircuitGrid generates a grid with random local shortcuts — the stand-in
// for circuit matrices such as G3_circuit.
func CircuitGrid(nx, ny int, extraFrac float64, seed int64) *Graph {
	return gen.CircuitGrid(nx, ny, extraFrac, seed)
}

// RandomGeometric generates a connected random geometric graph.
func RandomGeometric(n int, radius float64, seed int64) *Graph {
	return gen.RandomGeometric(n, radius, seed)
}

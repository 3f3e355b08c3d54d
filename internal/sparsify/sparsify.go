// Package sparsify implements the paper's contribution: graph spectral
// sparsification via approximate trace reduction (Algorithm 2), together
// with the two baselines the evaluation compares against — GRASS [8]
// (spectral perturbation analysis) and feGRASS [13] (tree effective
// resistance).
//
// The driver follows Algorithm 2: extract a low-stretch spanning tree
// (MEWST), score every off-tree edge with the *truncated trace reduction*
// (eq. 15, exact on trees via offline LCA and BFS voltage propagation), then
// run N_r−1 densification rounds in which the current subgraph's Laplacian
// is factorized, a sparse approximate inverse of the Cholesky factor is
// built (Algorithm 1), and off-subgraph edges are re-scored with eq. (20).
// After each selection, edges spectrally similar to a recovered edge are
// excluded for the rest of the round (strategy of [13]).
package sparsify

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/chol"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/resist"
	"repro/internal/spai"
	"repro/internal/tree"
)

// Method selects the spectral criticality metric.
type Method int

const (
	// TraceReduction is the paper's metric (Algorithm 2).
	TraceReduction Method = iota
	// GRASS is the spectral-perturbation baseline of [8].
	GRASS
	// FeGRASS is the tree effective-resistance baseline of [13]
	// (single-round, no densification).
	FeGRASS
	// ER is Spielman–Srivastava effective-resistance sampling
	// (arXiv:0803.0929): estimate R_eff per edge with JL sketches
	// solved through the PCG stack (internal/resist), then
	// importance-sample off-tree edges proportional to w·R_eff with
	// weight reweighting, always keeping the spanning tree. A
	// single-round quality-vs-speed dial against trace reduction.
	ER
)

func (m Method) String() string {
	switch m {
	case TraceReduction:
		return "trace-reduction"
	case GRASS:
		return "grass"
	case FeGRASS:
		return "fegrass"
	case ER:
		return "er"
	}
	return "unknown"
}

// ParseMethod resolves a user-facing method name — as accepted by the
// CLI flags and the /v2 `method=` query parameter — to a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "trace", "trace-reduction":
		return TraceReduction, nil
	case "grass":
		return GRASS, nil
	case "fegrass":
		return FeGRASS, nil
	case "er", "effective-resistance":
		return ER, nil
	}
	return 0, fmt.Errorf("sparsify: unknown method %q (want trace, grass, fegrass, or er)", s)
}

// Options configures Sparsify. Zero values select the paper's defaults.
type Options struct {
	Method Method

	// Alpha is the fraction of |V| off-tree edges to recover (paper: 0.10).
	Alpha float64
	// Rounds is the number of densification iterations N_r (paper: 5).
	Rounds int
	// Beta is the BFS truncation depth β of eq. (12) (paper: 5).
	Beta int
	// Delta is the SPAI pruning threshold δ of Algorithm 1 (paper: 0.1).
	Delta float64
	// SimilarityHops is the BFS radius γ used to mark edges spectrally
	// similar to a recovered edge for exclusion; 0 keeps the default (2),
	// negative disables exclusion entirely.
	SimilarityHops int
	// PowerSteps is the number t of power-iteration steps for GRASS
	// (default 2); PowerVectors the number of random probe vectors
	// (default 3).
	PowerSteps   int
	PowerVectors int
	// ShiftRel scales the shared diagonal regularization (default
	// lap.DefaultShiftRel).
	ShiftRel float64
	// Workers bounds scoring parallelism (default GOMAXPROCS).
	Workers int
	// Seed drives every random choice, making runs reproducible.
	Seed int64

	// ERSketches is the JL sketch count for the ER method (0 derives
	// it from EREpsilon and the graph size; see internal/resist). More
	// sketches sharpen the resistance estimates at one extra linear
	// solve each.
	ERSketches int
	// EREpsilon is the target relative accuracy of the sketched
	// resistances (default resist.DefaultEpsilon = 0.5). Only
	// consulted when ERSketches is unset.
	EREpsilon float64

	// grassExclusion lets ablation studies hand the GRASS baseline the
	// feGRASS similarity exclusion the published algorithm lacks
	// (see WithGRASSExclusion).
	grassExclusion bool
}

// WithGRASSExclusion returns a copy of o in which the GRASS baseline also
// uses the similarity exclusion; used by the ablation benchmarks.
func (o Options) WithGRASSExclusion() Options {
	o.grassExclusion = true
	return o
}

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 {
		o.Alpha = 0.10
		if o.Method == ER {
			// Sampled edges carry capped importance weights and land
			// wherever the leverage mass puts them, so each one buys
			// less preconditioning than a trace-chosen edge; sampling
			// is also orders of magnitude cheaper than eq. (20)
			// scoring. MethodER therefore defaults to twice the edge
			// budget — the dial trades a denser sparsifier for a much
			// faster build (see TUNING.md for measured points).
			o.Alpha = 0.20
		}
	}
	if o.Rounds <= 0 {
		o.Rounds = 5
	}
	if o.Beta <= 0 {
		o.Beta = 5
	}
	if o.Delta <= 0 {
		o.Delta = 0.1
	}
	if o.SimilarityHops == 0 {
		o.SimilarityHops = 2
	}
	if o.PowerSteps <= 0 {
		o.PowerSteps = 2
	}
	if o.PowerVectors <= 0 {
		o.PowerVectors = 3
	}
	if o.ShiftRel <= 0 {
		o.ShiftRel = lap.DefaultShiftRel
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.EREpsilon <= 0 {
		o.EREpsilon = resist.DefaultEpsilon
	}
	return o
}

// Stats captures where sparsification time went and what happened.
type Stats struct {
	TreeTime   time.Duration
	ScoreTime  time.Duration
	FactorTime time.Duration
	Total      time.Duration
	Rounds     int
	EdgesAdded int
	SPAINnz    []int // Z̃ nonzeros per general round (diagnostic)

	// ERTime is the time the ER method spent in sketch-based
	// effective-resistance estimation; ERSketches records how many
	// sketch columns were solved.
	ERTime     time.Duration
	ERSketches int
}

// Result is a computed sparsifier.
type Result struct {
	// Sparsifier is the subgraph P over the same vertex set.
	Sparsifier *graph.Graph
	// EdgeIdx lists the G edge indices included in P (tree + recovered).
	EdgeIdx []int
	// InSub flags each G edge's membership in P.
	InSub []bool
	// Tree is the initial spanning tree.
	Tree *tree.Tree
	// Shift is the shared diagonal regularization used during
	// construction; reuse it when building the (L_G, L_P) pencil.
	Shift []float64
	// Reweight, when non-nil, is a per-G-edge weight override (aligned
	// with g.Edges; 0 keeps the original weight). The ER method sets it
	// for importance-sampled edges — a sampled edge carries weight
	// w·c/(q·p) so the sparsifier's Laplacian stays an unbiased
	// estimate of L_G — and Sparsifier is assembled with these weights.
	// Tree and recovered cut edges keep their original weights.
	Reweight []float64
	Stats    Stats
	// Shards is per-shard telemetry when the result came out of the
	// partition-parallel sharded pipeline (internal/shard); nil for a
	// monolithic build.
	Shards *ShardStats
}

// Sparsify runs the configured sparsification algorithm on g.
// The graph must be connected.
func Sparsify(g *graph.Graph, opts Options) (*Result, error) {
	return SparsifyContext(context.Background(), g, opts)
}

// SparsifyContext is Sparsify with cancellation: ctx is polled before the
// spanning tree extraction, at every densification round boundary, and
// every few hundred candidates inside the parallel scoring loops, so a
// canceled context abandons construction promptly instead of finishing a
// multi-second build nobody is waiting for. On cancellation it returns the
// context error (wrapped) and a nil result.
func SparsifyContext(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	o := opts.withDefaults()
	start := time.Now()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sparsify: %w", err)
	}

	t0 := time.Now()
	st, err := tree.MEWST(g)
	if err != nil {
		return nil, fmt.Errorf("sparsify: %w", err)
	}
	treeTime := time.Since(t0)

	budget := int(o.Alpha * float64(g.N))
	if budget > g.M()-len(st.EdgeIdx) {
		budget = g.M() - len(st.EdgeIdx)
	}

	res := &Result{
		Tree:  st,
		InSub: append([]bool(nil), st.InTree...),
		Shift: lap.Shift(g, o.ShiftRel),
	}
	res.Stats.TreeTime = treeTime

	switch o.Method {
	case TraceReduction:
		err = runTraceReduction(ctx, g, st, res, budget, o)
	case GRASS:
		err = runGRASS(ctx, g, st, res, budget, o)
	case FeGRASS:
		err = runFeGRASS(ctx, g, st, res, budget, o)
	case ER:
		err = runER(ctx, g, res, budget, o)
	default:
		err = fmt.Errorf("sparsify: unknown method %d", o.Method)
	}
	if err != nil {
		return nil, err
	}

	res.EdgeIdx = res.EdgeIdx[:0]
	for i, in := range res.InSub {
		if in {
			res.EdgeIdx = append(res.EdgeIdx, i)
		}
	}
	res.Sparsifier = WeightedSubgraph(g, res.EdgeIdx, res.Reweight)
	res.Stats.Total = time.Since(start)
	return res, nil
}

// WeightedSubgraph builds the subgraph over g's vertex set containing
// the listed edges, honoring per-edge weight overrides (nil or zero
// entries keep the original weight). With no overrides it is exactly
// g.Subgraph; the ER method and the sharded stitch use it to assemble
// reweighted sparsifiers.
func WeightedSubgraph(g *graph.Graph, edgeIdx []int, reweight []float64) *graph.Graph {
	if reweight == nil {
		return g.Subgraph(edgeIdx)
	}
	edges := make([]graph.Edge, len(edgeIdx))
	for i, e := range edgeIdx {
		ed := g.Edges[e]
		if w := reweight[e]; w > 0 {
			ed.W = w
		}
		edges[i] = ed
	}
	// g.Edges is already normalized (U < V, deduplicated), so the copy
	// qualifies for the validation-free constructor and edge order is
	// preserved exactly.
	return graph.FromNormalized(g.N, edges)
}

// runTraceReduction is Algorithm 2.
func runTraceReduction(ctx context.Context, g *graph.Graph, st *tree.Tree, res *Result, budget int, o Options) error {
	perRound := budget / o.Rounds
	if perRound == 0 {
		perRound = budget
	}
	excl := newExcluder(g, st, o.SimilarityHops)

	// Round 1: exact truncated trace reduction on the tree (eq. 15).
	t0 := time.Now()
	cand := offSubgraphEdges(g, res.InSub)
	scores, err := scoreTreePhase(ctx, g, st, cand, o)
	if err != nil {
		return fmt.Errorf("sparsify: %w", err)
	}
	res.Stats.ScoreTime += time.Since(t0)
	added := selectEdges(g, res, excl, cand, scores, perRound)
	res.Stats.EdgesAdded += added
	res.Stats.Rounds = 1

	// Rounds 2..N_r: general subgraph via Cholesky + SPAI (eq. 20).
	var pool genPool
	for iter := 2; iter <= o.Rounds && res.Stats.EdgesAdded < budget; iter++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sparsify: round %d: %w", iter, err)
		}
		remaining := budget - res.Stats.EdgesAdded
		quota := perRound
		if iter == o.Rounds || quota > remaining {
			quota = remaining
		}
		t0 = time.Now()
		ls := lap.Laplacian(subgraphView(g, res.InSub), res.Shift)
		f, err := chol.New(ls, chol.Options{})
		if err != nil {
			return fmt.Errorf("sparsify: factorizing round-%d subgraph: %w", iter, err)
		}
		z := spai.Compute(f.L, o.Delta)
		res.Stats.FactorTime += time.Since(t0)
		res.Stats.SPAINnz = append(res.Stats.SPAINnz, z.NNZ())

		t0 = time.Now()
		cand = offSubgraphEdges(g, res.InSub)
		scores, err = pool.score(ctx, g, res.InSub, f, z, cand, o)
		if err != nil {
			return fmt.Errorf("sparsify: round %d: %w", iter, err)
		}
		res.Stats.ScoreTime += time.Since(t0)
		added = selectEdges(g, res, excl, cand, scores, quota)
		res.Stats.EdgesAdded += added
		res.Stats.Rounds = iter
		if added == 0 {
			break
		}
	}
	return nil
}

// offSubgraphEdges lists G edge indices currently outside the subgraph.
func offSubgraphEdges(g *graph.Graph, inSub []bool) []int {
	out := make([]int, 0, g.M())
	for i := range g.Edges {
		if !inSub[i] {
			out = append(out, i)
		}
	}
	return out
}

// subgraphView builds the subgraph over the same vertex set containing the
// flagged edges.
func subgraphView(g *graph.Graph, inSub []bool) *graph.Graph {
	idx := make([]int, 0)
	for i, in := range inSub {
		if in {
			idx = append(idx, i)
		}
	}
	return g.Subgraph(idx)
}

// byScore returns positions into cand ordered by descending score, ties
// broken by ascending edge index. The comparator is negative exactly when
// scores[a] > scores[b], or the scores are equal and cand[a] < cand[b];
// cmp.Compare would order NaN scores differently.
func byScore(cand []int, scores []float64) []int {
	order := make([]int, len(cand))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if sa, sb := scores[a], scores[b]; sa != sb {
			if sa > sb {
				return -1
			}
			return 1
		}
		return cmp.Compare(cand[a], cand[b])
	})
	return order
}

// selectEdges adds up to quota candidate edges in descending score order,
// skipping excluded (spectrally similar) ones and marking the neighborhoods
// of every recovered edge. Returns the number of edges added.
func selectEdges(g *graph.Graph, res *Result, excl *excluder, cand []int, scores []float64, quota int) int {
	order := byScore(cand, scores)
	excl.beginRound(res.InSub)
	added := 0
	for _, oi := range order {
		if added >= quota {
			break
		}
		e := cand[oi]
		if scores[oi] <= 0 {
			break
		}
		ed := g.Edges[e]
		if excl.isExcluded(ed.U, ed.V) {
			continue
		}
		res.InSub[e] = true
		added++
		excl.markSimilar(ed.U, ed.V)
	}
	// Exclusion can saturate on dense graphs (every candidate's endpoints
	// end up inside serviced corridors). The edge budget is a contract —
	// Table 1 compares methods at identical sparsifier sizes — so top up
	// from the skipped candidates in score order.
	if added < quota {
		for _, oi := range order {
			if added >= quota {
				break
			}
			e := cand[oi]
			if scores[oi] <= 0 {
				break
			}
			if !res.InSub[e] {
				res.InSub[e] = true
				added++
			}
		}
	}
	return added
}

// cancelCheckStride is how many loop iterations run between context polls
// inside the parallel scoring loops; it bounds cancellation latency by a
// few hundred candidate scorings per worker.
const cancelCheckStride = 256

// parallelFor runs fn(i) for i in [0, n) across the configured workers,
// polling ctx every cancelCheckStride iterations per worker. Each worker
// receives a distinct worker id for scratch-space ownership. It returns the
// context error if the loop was abandoned early (some fn calls skipped).
func parallelFor(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if workers <= 1 || n < 64 {
		for i := 0; i < n; i++ {
			if i%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			fn(0, i)
		}
		return nil
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if (i-lo)%cancelCheckStride == 0 && ctx.Err() != nil {
					return
				}
				fn(worker, i)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	return ctx.Err()
}

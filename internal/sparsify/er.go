package sparsify

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/resist"
)

// erDefaultSketchScale and the clamps below size the sketch count when
// Options.ERSketches is unset: k = 1.5·log₂(n+1)·(0.5/ε)², clamped to
// [8, 64]. That is deliberately fewer sketches than a (1±ε) pointwise
// guarantee needs — importance sampling only consumes the *relative*
// magnitudes of the leverage scores, and constant-factor noise in the
// sampling distribution is absorbed by the reweighting — so the default
// buys speed; callers wanting estimator-grade resistances set
// ERSketches (or EREpsilon) explicitly.
const (
	erDefaultSketchScale = 1.5
	erMinSketches        = 8
	erMaxSketches        = 64
)

// erMaxMultiplier caps the importance-sampling weight multiplier
// c/(q·p): sampled edges are never admitted above their original
// weight. The unbiased multiplier (≈ #cand/q for typical leverage) is
// actively harmful in the q ≪ n·log n regime this method runs in: the
// spanning tree is already kept at full weight, so inflating a sparse
// random complement to make E[L_P] match L_G plants high-eigenvalue
// outliers instead of closing the gap. Measured on PCG iterations,
// quality degrades monotonically as the cap loosens — three-community
// fixture: cap 1 → 38 iters, 2 → 46, 4 → 59, unclamped ~8 → 74+
// (trace reduction: 36); 600×600 grid: cap 1 → 151, 2 → 190,
// unclamped ~10 → 417 (trace: 48). Keeping sampled edges at original
// weight is both the best measured point and the defensible limit: the
// sparsifier is then a plain subgraph of G, so L_P ⪯ L_G and the
// preconditioned spectrum is one-sided.
const erMaxMultiplier = 1.0

// erSketchCount resolves the sketch count for sampling-grade estimates.
func erSketchCount(n int, o Options) int {
	if o.ERSketches > 0 {
		return o.ERSketches
	}
	eps := o.EREpsilon
	if eps <= 0 {
		eps = resist.DefaultEpsilon
	}
	scale := (resist.DefaultEpsilon / eps) * (resist.DefaultEpsilon / eps)
	k := int(math.Ceil(erDefaultSketchScale * math.Log2(float64(n+1)) * scale))
	if k < erMinSketches {
		k = erMinSketches
	}
	if k > erMaxSketches {
		k = erMaxSketches
	}
	return k
}

// runER is Spielman–Srivastava effective-resistance sampling: estimate
// R_eff per edge with JL sketches, then draw q = budget systematic
// samples from the off-tree edges with probability proportional to the
// leverage score w·R_eff, admitting each sampled edge at weight
// w·min(c/(q·p), erMaxMultiplier) (c its hit count). The spanning tree
// is always kept at original weight, so the connectivity sentinels of
// the rest of the stack hold unconditionally; the sampled complement
// concentrates on the highest-leverage off-tree edges, which is what
// makes the sparsifier a preconditioner.
func runER(ctx context.Context, g *graph.Graph, res *Result, budget int, o Options) error {
	t0 := time.Now()
	est, err := resist.Estimate(ctx, g, resist.Options{
		Sketches: erSketchCount(g.N, o),
		Epsilon:  o.EREpsilon,
		Workers:  o.Workers,
		Seed:     o.Seed,
		ShiftRel: o.ShiftRel,
	})
	if err != nil {
		return fmt.Errorf("sparsify: er: %w", err)
	}
	res.Stats.ERTime = time.Since(t0)
	res.Stats.ERSketches = est.Sketches
	res.Stats.Rounds = 1

	cand := offSubgraphEdges(g, res.InSub)
	if budget <= 0 || len(cand) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sparsify: er: %w", err)
	}

	// Cumulative leverage-score masses over the candidate pool.
	cum := make([]float64, len(cand))
	total := 0.0
	for i, e := range cand {
		s := g.Edges[e].W * est.R[e]
		if s < 0 || math.IsNaN(s) {
			s = 0
		}
		total += s
		cum[i] = total
	}
	if total <= 0 {
		// Degenerate pool (all sketched resistances zero); keep the
		// tree-only sparsifier rather than sampling uniformly from
		// noise.
		return nil
	}

	// Systematic sampling: q strides through the cumulative mass from a
	// single random offset. Each candidate's inclusion probability is
	// still exactly proportional to its leverage score, but the draws
	// are maximally spread over the pool instead of iid — on mesh-like
	// graphs (candidates laid out in index order) that yields a
	// spatially even complement without the Poisson clumps and gaps of
	// independent draws, which measurably strengthens the
	// preconditioner for the same edge budget.
	q := budget
	rng := rand.New(rand.NewSource(o.Seed*1_000_003 + 0x5eed))
	offset := rng.Float64()
	stride := total / float64(q)
	counts := make(map[int]int, q)
	for t := 0; t < q; t++ {
		x := (float64(t) + offset) * stride
		i := sort.SearchFloat64s(cum, x)
		if i >= len(cand) {
			i = len(cand) - 1
		}
		counts[i]++
	}

	res.Reweight = make([]float64, g.M())
	added := 0
	for i, c := range counts {
		e := cand[i]
		mass := cum[i]
		if i > 0 {
			mass -= cum[i-1]
		}
		p := mass / total
		if p <= 0 {
			continue
		}
		mult := float64(c) / (float64(q) * p)
		if mult > erMaxMultiplier {
			mult = erMaxMultiplier
		}
		res.InSub[e] = true
		res.Reweight[e] = g.Edges[e].W * mult
		added++
	}
	res.Stats.EdgesAdded = added
	return nil
}

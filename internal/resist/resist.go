// Package resist estimates per-edge effective resistances at scale.
//
// The effective resistance of an edge e = (u, v) is
// R_eff(e) = (χ_u − χ_v)ᵀ L⁺ (χ_u − χ_v) — the energy of the unit
// current between its endpoints — and w_e·R_eff(e) is the edge's
// leverage score, the sampling weight of the Spielman–Srivastava
// spectral sparsifier (arXiv:0803.0929). Computing it exactly needs a
// pseudoinverse; the standard scalable route is the
// Johnson–Lindenstrauss sketch of the same paper: with Q a k×m random
// ±1/√k matrix and Z = Q W^{1/2} B L⁺,
//
//	R_eff(e) ≈ ‖Z(χ_u − χ_v)‖²   for k = O(log n / ε²),
//
// so k linear solves L zᵢ = (W^{1/2} B)ᵀ qᵢ against random sign vectors
// qᵢ replace n solves against every basis vector. The regularized
// Laplacian is factorized once (internal/chol), and each sketch column
// is then two triangular solves against that factor. Sketch solves run
// concurrently on a bounded worker pool and are cancellable between
// sketches.
//
// Exact provides the dense-pseudoinverse reference for small graphs;
// the tests hold the sketch estimator to (1±ε) of it.
package resist

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/chol"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/lap"
)

// DefaultEpsilon is the target relative accuracy of the sketch estimate
// when Options.Epsilon is unset. The sketch count scales as 1/ε², so
// the default is deliberately coarse: resistances feed importance
// sampling, which tolerates constant-factor noise.
const DefaultEpsilon = 0.5

// Sketch-count clamps for the auto formula k = ceil(log₂(n+1)/ε²).
const (
	minSketches = 8
	maxSketches = 512
)

// Options configures Estimate. The zero value estimates with the
// default accuracy target on all cores.
type Options struct {
	// Sketches is the number k of random-projection columns. 0 derives
	// k from Epsilon: ceil(log₂(n+1)/ε²), clamped to [8, 512].
	Sketches int
	// Epsilon is the target relative accuracy when Sketches is unset
	// (default DefaultEpsilon). Smaller ε means more sketch solves.
	Epsilon float64
	// Workers bounds concurrent sketch solves (default GOMAXPROCS).
	// The result is bit-reproducible for a fixed (Seed, Sketches,
	// Workers) triple; changing Workers only reorders floating-point
	// accumulation.
	Workers int
	// Seed drives the random sign vectors.
	Seed int64
	// ShiftRel scales the shared diagonal regularization added to the
	// Laplacian before solving (default lap.DefaultShiftRel), the same
	// shift the sparsifier stack uses.
	ShiftRel float64
}

func (o Options) withDefaults(n int) Options {
	if o.Epsilon <= 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.Sketches <= 0 {
		k := int(math.Ceil(math.Log2(float64(n+1)) / (o.Epsilon * o.Epsilon)))
		if k < minSketches {
			k = minSketches
		}
		if k > maxSketches {
			k = maxSketches
		}
		o.Sketches = k
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ShiftRel <= 0 {
		o.ShiftRel = lap.DefaultShiftRel
	}
	return o
}

// Result carries the estimated resistances and where the time went.
type Result struct {
	// R is the estimated effective resistance per edge, aligned with
	// g.Edges.
	R []float64
	// Sketches is the number of sketch columns actually solved.
	Sketches int

	FactorTime time.Duration // Cholesky factorization
	SolveTime  time.Duration // sketch RHS assembly + triangular solves
	Total      time.Duration
}

// Estimate computes sketch-based effective resistances for every edge
// of g. It honors ctx between sketch solves; cancellation returns the
// context error (wrapped) and a nil result.
func Estimate(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	if g == nil || g.N < 1 {
		return nil, fmt.Errorf("resist: empty graph")
	}
	o := opts.withDefaults(g.N)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("resist: %w", err)
	}
	start := time.Now()

	lg := lap.Laplacian(g, lap.Shift(g, o.ShiftRel))
	t0 := time.Now()
	f, err := chol.New(lg, chol.Options{})
	if err != nil {
		return nil, fmt.Errorf("resist: factorizing regularized Laplacian: %w", err)
	}
	res := &Result{Sketches: o.Sketches, FactorTime: time.Since(t0)}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("resist: %w", err)
	}

	m := g.M()
	sqrtW := make([]float64, m)
	for i, e := range g.Edges {
		sqrtW[i] = math.Sqrt(e.W)
	}

	// Sketches are chunked statically across workers; each worker
	// accumulates into a private partial sum, and partials are merged in
	// worker order. Signs come from a per-sketch generator, so the
	// estimate is a pure function of (Seed, Sketches, Workers),
	// independent of scheduling.
	t0 = time.Now()
	workers := o.Workers
	if workers > o.Sketches {
		workers = o.Sketches
	}
	partials := make([][]float64, workers)
	errs := make([]error, workers)
	chunk := (o.Sketches + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > o.Sketches {
			hi = o.Sketches
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			acc := make([]float64, m)
			z := make([]float64, g.N)
			scratch := make([]float64, g.N)
			partials[w] = acc
			for s := lo; s < hi; s++ {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				// zᵢ = L⁻¹ (W^{1/2} B)ᵀ qᵢ for a fresh sign vector qᵢ,
				// solved in place.
				rng := newSignSource(o.Seed, s)
				for i := range z {
					z[i] = 0
				}
				for e, ed := range g.Edges {
					v := sqrtW[e]
					if rng.next() {
						z[ed.U] += v
						z[ed.V] -= v
					} else {
						z[ed.U] -= v
						z[ed.V] += v
					}
				}
				f.SolveToNoAlloc(z, z, scratch)
				for e, ed := range g.Edges {
					d := z[ed.U] - z[ed.V]
					acc[e] += d * d
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("resist: sketch solve: %w", err)
		}
	}

	r := make([]float64, m)
	inv := 1 / float64(o.Sketches)
	for _, acc := range partials {
		if acc == nil {
			continue
		}
		for e, v := range acc {
			r[e] += v
		}
	}
	for e := range r {
		r[e] *= inv
	}
	res.R = r
	res.SolveTime = time.Since(t0)
	res.Total = time.Since(start)
	return res, nil
}

// exactMaxVertices bounds Exact: the dense inverse is O(n³) time and
// O(n²) memory, a reference implementation for tests and examples, not
// a production path.
const exactMaxVertices = 4096

// Exact computes effective resistances by dense inversion of the
// regularized Laplacian: R(u,v) = L⁻¹[u,u] − 2·L⁻¹[u,v] + L⁻¹[v,v]
// under the same diagonal shift the sketch estimator uses (shiftRel ≤ 0
// selects the default), so the two agree up to sketching error. It refuses graphs above 4096 vertices.
func Exact(g *graph.Graph, shiftRel float64) ([]float64, error) {
	if g == nil || g.N < 1 {
		return nil, fmt.Errorf("resist: empty graph")
	}
	if g.N > exactMaxVertices {
		return nil, fmt.Errorf("resist: exact resistance is dense O(n³); %d vertices exceeds the %d limit", g.N, exactMaxVertices)
	}
	if shiftRel <= 0 {
		shiftRel = lap.DefaultShiftRel
	}
	lg := lap.Laplacian(g, lap.Shift(g, shiftRel))
	d := dense.New(g.N, g.N)
	for j := 0; j < lg.Cols; j++ {
		for p := lg.ColPtr[j]; p < lg.ColPtr[j+1]; p++ {
			d.Set(lg.RowIdx[p], j, lg.Val[p])
		}
	}
	inv, err := dense.InvSPD(d)
	if err != nil {
		return nil, fmt.Errorf("resist: inverting regularized Laplacian: %w", err)
	}
	r := make([]float64, g.M())
	for i, e := range g.Edges {
		r[i] = inv.At(e.U, e.U) - 2*inv.At(e.U, e.V) + inv.At(e.V, e.V)
	}
	return r, nil
}

// signSource is a splitmix64 stream consumed one bit at a time: one
// 64-bit state step serves 64 edge signs, and the (seed, sketch) mix
// decorrelates sketches without any cross-sketch sequencing, which is
// what lets workers own whole sketches.
type signSource struct {
	state uint64
	bits  uint64
	nbits int
}

func newSignSource(seed int64, sketch int) *signSource {
	s := uint64(seed)*0x9e3779b97f4a7c15 + uint64(sketch)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	return &signSource{state: s}
}

func (s *signSource) next() bool {
	if s.nbits == 0 {
		s.state += 0x9e3779b97f4a7c15
		z := s.state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s.bits = z ^ (z >> 31)
		s.nbits = 64
	}
	b := s.bits&1 == 1
	s.bits >>= 1
	s.nbits--
	return b
}

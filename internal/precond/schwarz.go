package precond

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/chol"
	"repro/internal/dense"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// SchwarzOptions tunes the Schwarz builder. Kept for
// perfbench/replay.go until ROADMAP item 11.
type SchwarzOptions struct {
	// Workers bounds the concurrent per-cluster factorizations
	// (default GOMAXPROCS).
	Workers int
	// Keys, when non-empty, names each cluster (aligned with cluster
	// ids) for factor caching — normally the shard plan's cluster
	// fingerprints. Clusters with an empty key are never cached.
	Keys []string
	// Cache, when non-nil together with Keys, is consulted before each
	// cluster is factorized and populated afterward; see FactorCache for
	// the staleness contract.
	Cache FactorCache
	// Ctx, when non-nil, is checked before each cluster's factorization;
	// once it is done, Build fails with its error.
	Ctx context.Context
}

// Overlap clamps.
const (
	minOverlap = 4
	maxOverlap = 32
)

// overlapLayers returns how many structure layers each of k clusters
// over n vertices is extended by before its principal submatrix is
// factorized: about a quarter of the mean cluster diameter √(n/k),
// clamped to [minOverlap, maxOverlap], because the Schwarz condition
// number scales like 1 + H/δ (H the cluster diameter, δ the overlap
// width).
func overlapLayers(n, k int) int {
	h := int(math.Sqrt(float64(n) / float64(k)))
	ov := (h + 3) / 4
	if ov < minOverlap {
		ov = minOverlap
	}
	if ov > maxOverlap {
		ov = maxOverlap
	}
	return ov
}

func (o SchwarzOptions) withDefaults() SchwarzOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// schwarzBuilder builds schwarzPrecond instances for a fixed cluster
// assignment (normally the sharded pipeline's plan).
type schwarzBuilder struct {
	assign []int
	opts   SchwarzOptions
}

// NewSchwarz returns a builder for the two-level Schwarz preconditioner
// over the given cluster assignment (assign[v] = cluster id of vertex v;
// ids must be compact, 0..K-1 with every cluster nonempty). The sharded
// pipeline's Plan.Assign satisfies this by construction. The assignment
// is copied: the built preconditioner aggregates through it on every
// Apply for its whole lifetime, and aliasing a caller-visible slice
// (ShardStats.Assign) would let external mutation silently corrupt
// cached solves. Kept for perfbench/replay.go until ROADMAP item 11.
func NewSchwarz(assign []int, opts SchwarzOptions) Builder {
	return &schwarzBuilder{assign: append([]int(nil), assign...), opts: opts.withDefaults()}
}

func (b *schwarzBuilder) Kind() string { return kindSchwarz }

// schwarzPrecond is a symmetrized multiplicative two-level Schwarz
// preconditioner over per-cluster factors of the stitched sparsifier
// Laplacian A = L_P. Each cluster's vertex set is extended by a few
// overlap layers and the corresponding principal submatrix A_c is
// factored sparsely (concurrently, at build time). The clusters are then
// greedy-colored so that same-color blocks have no coupling entry in A —
// which makes each color's correction
//
//	z += Σ_{c ∈ color} R̃_cᵀ A_c⁻¹ R̃_c (r − A z)
//
// an exact A-orthogonal projection step — and one application runs the
// palindromic sweep
//
//	coarse, color₁, …, colorₘ, colorₘ, …, color₁, coarse
//
// recomputing the residual r − A z between steps. The coarse step solves
// the cluster-quotient system A₀ = R₀ A R₀ᵀ (R₀ aggregates per cluster:
// the cut-edge coupling between clusters plus the aggregated shift) with
// one small dense Cholesky solve; it carries the global error component
// no block can see. The multiplicative composition is what keeps the
// iteration penalty bounded: a plain additive sum over overlapping blocks
// double-counts every vertex by its coverage multiplicity, and that —
// not the overlap width — becomes its conditioning floor.
//
// The palindromic order makes the error propagation F*F for an
// A-contraction F, so the induced operator is symmetric positive definite
// and PCG applies. With a single cluster the block solve is exact and the
// operator degenerates to the monolithic factorization.
//
// Apply is safe for concurrent use: all scratch comes from a pool.
type schwarzPrecond struct {
	a        *sparse.CSC // the preconditioned matrix L_P (for sweep residuals)
	assign   []int       // base (non-overlapping) assignment, for the coarse level
	clusters [][]int     // per-cluster extended global index sets, sorted
	colors   [][]int     // cluster ids per color; same-color blocks are A-decoupled
	factors  []*chol.Factor
	coarseL  *dense.Matrix // dense Cholesky factor of A₀; nil when K < 2
	maxLocal int
	scratch  sync.Pool
}

type schwarzScratch struct {
	rl, zl, yl []float64 // local gather / solve / triangular scratch
	rc         []float64 // coarse residual and solution (in place)
	t, u       []float64 // sweep residual scratch
}

// Apply computes z = M⁻¹ r.
func (p *schwarzPrecond) Apply(z, r []float64) {
	s := p.scratch.Get().(*schwarzScratch)
	if p.coarseL == nil {
		// Single cluster: one exact block solve, nothing to compose.
		for i := range z {
			z[i] = 0
		}
		p.color(z, r, 0, s)
		p.scratch.Put(s)
		return
	}
	// z = C r, then the palindromic color sweep, then C again. The
	// backward pass starts at m−2: repeating the last color would be an
	// exact no-op (the projection just applied is idempotent and no
	// same-color block perturbs another), so skipping it keeps the
	// operator bit-identical while saving one color pass per apply.
	p.coarse(z, r, s, false)
	m := len(p.colors)
	for ci := 0; ci < m; ci++ {
		p.color(z, r, ci, s)
	}
	for ci := m - 2; ci >= 0; ci-- {
		p.color(z, r, ci, s)
	}
	p.residual(s.t, r, z, s.u)
	p.coarse(z, s.t, s, true)
	p.scratch.Put(s)
}

// residual computes t = r − A z (u is scratch for A z).
func (p *schwarzPrecond) residual(t, r, z, u []float64) {
	p.a.MulVec(z, u)
	for i := range t {
		t[i] = r[i] - u[i]
	}
}

// coarse applies the cluster-quotient correction: z (+)= R₀ᵀ A₀⁻¹ R₀ r.
func (p *schwarzPrecond) coarse(z, r []float64, s *schwarzScratch, add bool) {
	rc := s.rc
	for c := range rc {
		rc[c] = 0
	}
	for i, c := range p.assign {
		rc[c] += r[i]
	}
	coarseSolve(p.coarseL, rc)
	if add {
		for i, c := range p.assign {
			z[i] += rc[c]
		}
	} else {
		for i, c := range p.assign {
			z[i] = rc[c]
		}
	}
}

// color applies one color's block corrections against the current
// iterate: z += Σ_c R̃_cᵀ A_c⁻¹ R̃_c (r − A z) for every cluster c in the
// color. The residual is evaluated only on each block's support, one
// symmetric row-dot per vertex (row i of A is column i), instead of a
// full matrix-vector product per color step — the supports of one full
// sweep sum to roughly the extended vertex count, a fraction of what
// len(colors) full products would cost. Same-color supports are disjoint
// and A-decoupled, so no same-color update changes another block's
// residual and the additions commute: the step is an exact A-orthogonal
// projection.
func (p *schwarzPrecond) color(z, r []float64, ci int, s *schwarzScratch) {
	for _, c := range p.colors[ci] {
		p.block(z, r, c, s)
	}
}

// block applies one cluster's correction; see color for the invariants.
func (p *schwarzPrecond) block(z, r []float64, c int, s *schwarzScratch) {
	a := p.a
	idx := p.clusters[c]
	rl, zl, yl := s.rl[:len(idx)], s.zl[:len(idx)], s.yl[:len(idx)]
	for j, i := range idx {
		var az float64
		for q := a.ColPtr[i]; q < a.ColPtr[i+1]; q++ {
			az += a.Val[q] * z[a.RowIdx[q]]
		}
		rl[j] = r[i] - az
	}
	p.factors[c].SolveToNoAlloc(zl, rl, yl)
	for j, i := range idx {
		z[i] += zl[j]
	}
}

// coarseSolve solves (L Lᵀ) x = b in place given the dense lower factor.
func coarseSolve(l *dense.Matrix, x []float64) {
	n := l.Rows
	for i := 0; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
}

// Build extends and factorizes every cluster's principal submatrix
// concurrently on a bounded worker pool, colors the clusters, assembles
// the coarse quotient matrix, and wires the Apply.
func (b *schwarzBuilder) Build(a *sparse.CSC) (solver.Preconditioner, *Stats, error) {
	start := time.Now()
	n := a.Cols
	if len(b.assign) != n {
		return nil, nil, fmt.Errorf("%w: %d assignments for an %d×%d matrix",
			ErrBadAssignment, len(b.assign), a.Rows, a.Cols)
	}
	k := 0
	for v, c := range b.assign {
		if c < 0 {
			return nil, nil, fmt.Errorf("%w: vertex %d has cluster id %d", ErrBadAssignment, v, c)
		}
		if c+1 > k {
			k = c + 1
		}
	}
	base := make([][]int, k)
	for i, c := range b.assign {
		base[c] = append(base[c], i) // ascending i → sorted by construction
	}
	for c, idx := range base {
		if len(idx) == 0 {
			return nil, nil, fmt.Errorf("%w: cluster %d is empty (ids must be compact)", ErrBadAssignment, c)
		}
	}

	p := &schwarzPrecond{
		a:        a,
		assign:   b.assign,
		clusters: make([][]int, k),
		factors:  make([]*chol.Factor, k),
	}

	// Phase 1 (serial, cheap BFS over the structure): extend every
	// cluster by the overlap layers.
	overlap := overlapLayers(n, k)
	{
		local := make([]int, n) // global → mark scratch, all zero between uses
		for c := range base {
			p.clusters[c] = extend(a, base[c], overlap, local)
		}
	}
	p.colors = colorClusters(a, p.clusters, k)

	// Phase 2 (concurrent on the worker pool): extract each extended
	// cluster's principal submatrix and factorize it — or adopt a cached
	// factor when the cluster's fingerprint key hits and the cached
	// extended index set matches the freshly computed one exactly (a
	// changed overlap geometry means the factor solves the wrong block).
	errs := make([]error, k)
	reused := make([]bool, k)
	keyOf := func(c int) string {
		if c < len(b.opts.Keys) {
			return b.opts.Keys[c]
		}
		return ""
	}
	ctx := b.opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	workers := b.opts.Workers
	if workers > k {
		workers = k
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]int, n) // global → local+1; 0 = absent
			for c := range next {
				key := keyOf(c)
				if b.opts.Cache != nil && key != "" {
					if f, idx, ok := b.opts.Cache.GetFactor(key); ok && slices.Equal(idx, p.clusters[c]) {
						p.factors[c] = f
						reused[c] = true
						continue
					}
				}
				if err := ctx.Err(); err != nil {
					errs[c] = err
					continue
				}
				sub, err := principal(a, p.clusters[c], local)
				if err != nil {
					errs[c] = err
					continue
				}
				f, err := chol.New(sub, chol.Options{})
				if err != nil {
					errs[c] = fmt.Errorf("precond: factorizing cluster %d (%d vertices): %w", c, len(p.clusters[c]), err)
					continue
				}
				p.factors[c] = f
				if b.opts.Cache != nil && key != "" {
					b.opts.Cache.AddFactor(key, f, p.clusters[c])
				}
			}
		}()
	}
	for c := 0; c < k; c++ {
		next <- c
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	st := &Stats{Kind: kindSchwarz}
	for c := range reused {
		if reused[c] {
			st.FactorsReused++
		}
	}
	for c := range p.factors {
		st.FactorNNZ += int64(p.factors[c].NNZ())
		st.MemBytes += p.factors[c].MemBytes()
		st.MemBytes += int64(len(p.clusters[c])) * 8
		if len(p.clusters[c]) > p.maxLocal {
			p.maxLocal = len(p.clusters[c])
		}
	}

	// Coarse level: A₀ = R₀ A R₀ᵀ over the base (non-overlapping)
	// assignment. The intra-cluster Laplacian part cancels under
	// piecewise-constant aggregation, leaving exactly the cut-edge
	// quotient coupling plus the aggregated diagonal shift — SPD as long
	// as the shift is positive, which the pencil guarantees. A single
	// cluster needs no coarse level: its block already solves exactly.
	if k >= 2 {
		a0 := dense.New(k, k)
		for j := 0; j < n; j++ {
			cj := b.assign[j]
			for q := a.ColPtr[j]; q < a.ColPtr[j+1]; q++ {
				ci := b.assign[a.RowIdx[q]]
				a0.Set(ci, cj, a0.At(ci, cj)+a.Val[q])
			}
		}
		l, err := dense.Cholesky(a0)
		if err != nil {
			return nil, nil, fmt.Errorf("precond: coarse %d×%d system: %w", k, k, err)
		}
		p.coarseL = l
		st.MemBytes += int64(k*k) * 8
	}

	p.scratch.New = func() any {
		s := &schwarzScratch{
			rl: make([]float64, p.maxLocal),
			zl: make([]float64, p.maxLocal),
			yl: make([]float64, p.maxLocal),
			rc: make([]float64, k),
		}
		if p.coarseL != nil {
			s.t = make([]float64, n)
			s.u = make([]float64, n)
		}
		return s
	}
	st.BuildTime = time.Since(start)
	return p, st, nil
}

// colorClusters greedy-colors the clusters so that two clusters whose
// extended sets are coupled by any entry of A (including a shared vertex)
// never share a color. Within a color the block corrections then commute
// exactly — their subspaces are mutually A-orthogonal — which is what
// lets the sweep apply a whole color at once while staying multiplicative
// across colors.
func colorClusters(a *sparse.CSC, clusters [][]int, k int) [][]int {
	n := a.Cols
	// cover[i] lists the clusters whose extended set contains vertex i
	// (coverage multiplicity is small: bounded by the overlap geometry).
	cover := make([][]int32, n)
	for c, idx := range clusters {
		for _, i := range idx {
			cover[i] = append(cover[i], int32(c))
		}
	}
	adj := make([]map[int]struct{}, k)
	link := func(c, d int) {
		if c == d {
			return
		}
		if adj[c] == nil {
			adj[c] = make(map[int]struct{})
		}
		if adj[d] == nil {
			adj[d] = make(map[int]struct{})
		}
		adj[c][d] = struct{}{}
		adj[d][c] = struct{}{}
	}
	for j := 0; j < n; j++ {
		cj := cover[j]
		// Shared-vertex pairs.
		for x := 0; x < len(cj); x++ {
			for y := x + 1; y < len(cj); y++ {
				link(int(cj[x]), int(cj[y]))
			}
		}
		// Off-diagonal coupling pairs.
		for q := a.ColPtr[j]; q < a.ColPtr[j+1]; q++ {
			i := a.RowIdx[q]
			if i == j {
				continue
			}
			for _, c := range cover[i] {
				for _, d := range cj {
					link(int(c), int(d))
				}
			}
		}
	}
	colorOf := make([]int, k)
	used := make(map[int]bool)
	maxColor := 0
	for c := 0; c < k; c++ {
		for u := range used {
			delete(used, u)
		}
		for d := range adj[c] {
			if d < c {
				used[colorOf[d]] = true
			}
		}
		col := 0
		for used[col] {
			col++
		}
		colorOf[c] = col
		if col+1 > maxColor {
			maxColor = col + 1
		}
	}
	colors := make([][]int, maxColor)
	for c := 0; c < k; c++ {
		colors[colorOf[c]] = append(colors[colorOf[c]], c)
	}
	return colors
}

// extend grows the sorted vertex set idx by `layers` breadth-first sweeps
// over the matrix structure. local is an all-zero scratch of length n on
// entry and is restored to all-zero on return.
func extend(a *sparse.CSC, idx []int, layers int, local []int) []int {
	out := append([]int(nil), idx...)
	for _, i := range out {
		local[i] = 1
	}
	frontier := out
	for l := 0; l < layers; l++ {
		var next []int
		for _, j := range frontier {
			for q := a.ColPtr[j]; q < a.ColPtr[j+1]; q++ {
				i := a.RowIdx[q]
				if local[i] == 0 {
					local[i] = 1
					next = append(next, i)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		out = append(out, next...)
		frontier = next
	}
	for _, i := range out {
		local[i] = 0
	}
	sort.Ints(out)
	return out
}

// principal extracts the principal submatrix A[idx, idx]. idx must be
// sorted; local is an all-zero scratch of length n on entry and is
// restored to all-zero on return.
func principal(a *sparse.CSC, idx []int, local []int) (*sparse.CSC, error) {
	for li, i := range idx {
		local[i] = li + 1
	}
	t := sparse.NewTriplet(len(idx), len(idx))
	for lj, j := range idx {
		for q := a.ColPtr[j]; q < a.ColPtr[j+1]; q++ {
			if li := local[a.RowIdx[q]]; li != 0 {
				t.Add(li-1, lj, a.Val[q])
			}
		}
	}
	for _, i := range idx {
		local[i] = 0
	}
	return t.ToCSC(), nil
}

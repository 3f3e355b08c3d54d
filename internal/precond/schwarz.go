package precond

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chol"
	"repro/internal/dense"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// SchwarzOptions tunes the Schwarz builder.
type SchwarzOptions struct {
	// Overlap is how many structure layers each cluster is extended by
	// before its principal submatrix is factorized. Wider overlap buys
	// PCG convergence for a bounded duplication of boundary work. 0
	// (the default) adapts to the cluster geometry — about a quarter of
	// the mean cluster diameter √(n/K), clamped to [minOverlap,
	// maxOverlap] — because the Schwarz condition number scales like
	// 1 + H/δ (H the cluster diameter, δ the overlap width): a fixed δ
	// that works at one cluster size under-delivers at twice the size.
	// Negative disables overlap entirely.
	Overlap int
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
	// ApplyWorkers bounds the goroutines that fan one Apply's same-color
	// block corrections out in parallel. Same-color blocks are
	// support-disjoint and A-decoupled by the coloring invariant, so the
	// parallel sweep is bit-identical to the sequential one. 0 (the
	// default) uses GOMAXPROCS; negative forces the sequential sweep.
	// Parallelism engages per color only when the color carries enough
	// blocks and work to amortize goroutine dispatch.
	ApplyWorkers int
}

// Overlap clamps for the adaptive default.
const (
	minOverlap = 4
	maxOverlap = 32
)

// resolveOverlap returns the effective extension depth for clusters
// averaging n/k vertices.
func (o SchwarzOptions) resolveOverlap(n, k int) int {
	switch {
	case o.Overlap > 0:
		return o.Overlap
	case o.Overlap < 0:
		return 0
	}
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
	switch {
	case o.ApplyWorkers == 0:
		o.ApplyWorkers = runtime.GOMAXPROCS(0)
	case o.ApplyWorkers < 0:
		o.ApplyWorkers = 1
	}
	return o
}

// schwarzBuilder builds SchwarzPrecond instances for a fixed cluster
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
// cached solves.
func NewSchwarz(assign []int, opts SchwarzOptions) Builder {
	return &schwarzBuilder{assign: append([]int(nil), assign...), opts: opts.withDefaults()}
}

func (b *schwarzBuilder) Kind() string { return Schwarz.String() }

// SchwarzPrecond is a symmetrized multiplicative two-level Schwarz
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
type SchwarzPrecond struct {
	n        int
	a        *sparse.CSC // the preconditioned matrix L_P (for sweep residuals)
	assign   []int       // base (non-overlapping) assignment, for the coarse level
	clusters [][]int     // per-cluster extended global index sets, sorted
	colors   [][]int     // cluster ids per color; same-color blocks are A-decoupled
	factors  []*chol.Factor
	coarseL  *dense.Matrix // dense Cholesky factor of A₀; nil when K < 2
	maxLocal int
	scratch  sync.Pool

	// applyWorkers bounds the per-color block fan-out; colorWork[ci] is
	// the total extended vertex count of color ci, the work estimate the
	// parallel gate consults.
	applyWorkers int
	colorWork    []int
	panel        sync.Pool // *[]float64 raw buffers for panel applies
}

type schwarzScratch struct {
	rl, zl, yl []float64 // local gather / solve / triangular scratch
	rc         []float64 // coarse residual and solution (in place)
	t, u       []float64 // sweep residual scratch
}

// parallelMinWork is the minimum extended-vertex count (× panel width)
// one color must carry before its block corrections fan out across
// goroutines; below it the dispatch overhead of even a handful of
// goroutines is comparable to the block solves themselves. A variable
// only so the bit-identity tests can force the parallel path on small
// fixtures; real callers tune ApplyWorkers, not this.
var parallelMinWork = 2048

// Apply computes z = M⁻¹ r.
func (p *SchwarzPrecond) Apply(z, r []float64) {
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

// NumClusters returns the number of per-cluster factors.
func (p *SchwarzPrecond) NumClusters() int { return len(p.factors) }

// ClusterFactor returns cluster c's extended (sorted, global) index set
// and Cholesky factor — the handle-level Update path seeds its factor
// cache from a base preconditioner through this. Both returns are shared,
// immutable state; callers must not mutate them.
func (p *SchwarzPrecond) ClusterFactor(c int) ([]int, *chol.Factor) {
	return p.clusters[c], p.factors[c]
}

// residual computes t = r − A z (u is scratch for A z).
func (p *SchwarzPrecond) residual(t, r, z, u []float64) {
	p.a.MulVec(z, u)
	for i := range t {
		t[i] = r[i] - u[i]
	}
}

// coarse applies the cluster-quotient correction: z (+)= R₀ᵀ A₀⁻¹ R₀ r.
func (p *SchwarzPrecond) coarse(z, r []float64, s *schwarzScratch, add bool) {
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
//
// The same invariant is what makes the parallel fan-out below exact, not
// merely approximate: block c writes z only at its own extended indices
// (disjoint from every same-color peer's), and the z entries its residual
// reads — rows with an A-entry into its support — belong to no same-color
// peer either, because such a coupling entry would have linked the two
// clusters during coloring. No location is read while another goroutine
// writes it and no location is written twice, so the parallel sweep is
// bit-identical to the sequential one, per color and per entry.
func (p *SchwarzPrecond) color(z, r []float64, ci int, s *schwarzScratch) {
	color := p.colors[ci]
	if p.applyWorkers > 1 && len(color) > 1 && p.colorWork[ci] >= parallelMinWork {
		p.colorParallel(z, r, color, s)
		return
	}
	for _, c := range color {
		p.block(z, r, c, s)
	}
}

// block applies one cluster's correction; see color for the invariants.
func (p *SchwarzPrecond) block(z, r []float64, c int, s *schwarzScratch) {
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

// colorParallel fans one color's blocks across a bounded worker pool.
// The caller's scratch serves the inline worker; extra workers draw their
// own from the pool, so concurrent block solves never share scratch.
func (p *SchwarzPrecond) colorParallel(z, r []float64, color []int, s *schwarzScratch) {
	workers := p.applyWorkers
	if workers > len(color) {
		workers = len(color)
	}
	var pos atomic.Int64
	run := func(ws *schwarzScratch) {
		for {
			i := int(pos.Add(1)) - 1
			if i >= len(color) {
				return
			}
			p.block(z, r, color[i], ws)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := p.scratch.Get().(*schwarzScratch)
			run(ws)
			p.scratch.Put(ws)
		}()
	}
	run(s)
	wg.Wait()
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

	p := &SchwarzPrecond{
		n:            n,
		a:            a,
		assign:       b.assign,
		clusters:     make([][]int, k),
		factors:      make([]*chol.Factor, k),
		applyWorkers: b.opts.ApplyWorkers,
	}

	// Phase 1 (serial, cheap BFS over the structure): extend every
	// cluster by the overlap layers.
	overlap := b.opts.resolveOverlap(n, k)
	{
		local := make([]int, n) // global → mark scratch, all zero between uses
		for c := range base {
			p.clusters[c] = extend(a, base[c], overlap, local)
		}
	}
	p.colors = colorClusters(a, p.clusters, k)
	p.colorWork = make([]int, len(p.colors))
	for ci, color := range p.colors {
		for _, c := range color {
			p.colorWork[ci] += len(p.clusters[c])
		}
	}

	// Phase 2 (concurrent on the worker pool): extract each extended
	// cluster's principal submatrix and factorize it — or adopt a cached
	// factor when the cluster's fingerprint key hits and the cached
	// extended index set matches the freshly computed one exactly (a
	// changed overlap geometry means the factor solves the wrong block).
	nnz := make([]int, k)
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
						nnz[c] = f.NNZ()
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
				nnz[c] = f.NNZ()
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

	st := &Stats{Kind: Schwarz.String(), Clusters: k, Colors: len(p.colors), PerClusterNNZ: nnz}
	for c := range reused {
		if reused[c] {
			st.FactorsReused++
		}
	}
	for c := range p.factors {
		st.FactorNNZ += int64(nnz[c])
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
		st.CoarseSize = k
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
	p.panel.New = func() any { return new([]float64) }
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

package solver

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// BlockPreconditioner is implemented by preconditioners that can apply
// M⁻¹ to a whole interleaved n×s panel in one pass over their own
// structure (triangular factors, block sweep), instead of s independent
// Apply calls. Entry (i, k) of a panel lives at index i*s+k. PCGBlock
// type-asserts against this and falls back to per-column Apply otherwise,
// so implementing it is a pure bandwidth optimization, never a
// correctness requirement.
type BlockPreconditioner interface {
	Preconditioner
	// ApplyPanel computes Z = M⁻¹ R column by column for an interleaved
	// panel of width s; z and r have length n·s exactly.
	ApplyPanel(z, r []float64, s int)
}

// ApplyPanel copies the panel through (plain block CG).
func (Identity) ApplyPanel(z, r []float64, s int) { copy(z, r) }

// ApplyPanel scales every panel row by the inverse diagonal.
func (j *Jacobi) ApplyPanel(z, r []float64, s int) {
	for i, d := range j.InvDiag {
		zi, ri := z[i*s:i*s+s], r[i*s:i*s+s]
		for k := range zi {
			zi[k] = ri[k] * d
		}
	}
}

// ApplyPanel solves (L Lᵀ) Z = R through the factor with one traversal of
// L per triangular sweep shared by all s columns. The pooled scratch
// buffer is grown to panel size on demand and kept, so steady-state panel
// applies allocate nothing.
func (c *CholPrecond) ApplyPanel(z, r []float64, s int) { c.apply(z, r, s) }

// applyPanelOf routes a panel apply to ApplyPanel when the preconditioner
// supports it and otherwise gathers/scatters each column through the
// scalar Apply, using the caller's two n-vector scratch slices.
func applyPanelOf(m Preconditioner, z, r []float64, n, s int, zc, rc []float64) {
	if s == 1 {
		m.Apply(z, r)
		return
	}
	if bp, ok := m.(BlockPreconditioner); ok {
		bp.ApplyPanel(z, r, s)
		return
	}
	for k := 0; k < s; k++ {
		for i := 0; i < n; i++ {
			rc[i] = r[i*s+k]
		}
		m.Apply(zc, rc)
		for i := 0; i < n; i++ {
			z[i*s+k] = zc[i]
		}
	}
}

// dotLanes accumulates the s per-column dot products of two interleaved
// panels into out[:s]. Per column the accumulation order is identical to
// the scalar dot.
func dotLanes(a, b []float64, s int, out []float64) {
	out = out[:s]
	for k := range out {
		out[k] = 0
	}
	for i := 0; i+s <= len(a); i += s {
		ai, bi := a[i:i+s], b[i:i+s]
		_ = bi[len(ai)-1]
		_ = out[len(ai)-1]
		for k := range ai {
			out[k] += ai[k] * bi[k]
		}
	}
}

// PCGBlock solves A X = B for a block of right-hand sides with one PCG
// iteration space shared across the block: each iteration runs a single
// matrix–panel product and a single preconditioner panel apply for all
// still-active columns, which is where multi-RHS throughput comes from —
// the matrix and factor traversals (the memory-bound part of PCG) are
// paid once per iteration instead of once per column. Each column keeps
// its own α, β, r·z, and residual recurrences, exactly the scalar PCG
// recurrences, so per-column results match PCG up to the harmless
// floating-point reassociation documented on MulPanel (in practice:
// identical iteration counts ±1 at equal tolerances).
//
// Columns converge independently: a converged (or broken-down) column is
// deflated — its solution is scattered into xs and the panels are
// repacked to the surviving width — so a batch mixing easy and hard
// right-hand sides stops paying for the easy ones early.
//
// bs and xs are parallel slices of n-vectors (xs entries are overwritten,
// zero-initialize for cold starts). A single column degenerates to the
// scalar PCG. Cancellation via opts.Ctx stops the whole block, with each
// unfinished column's Result.Err set and xs holding best iterates.
func PCGBlock(a *sparse.CSC, bs, xs [][]float64, m Preconditioner, opts Options) []Result {
	n := a.Cols
	if len(xs) != len(bs) {
		panic(fmt.Sprintf("solver: PCGBlock has %d rhs but %d solution vectors", len(bs), len(xs)))
	}
	for k := range bs {
		if len(bs[k]) != n || len(xs[k]) != n {
			panic(fmt.Sprintf("solver: PCGBlock dimension mismatch n=%d len(bs[%d])=%d len(xs[%d])=%d",
				n, k, len(bs[k]), k, len(xs[k])))
		}
	}
	switch len(bs) {
	case 0:
		return nil
	case 1:
		return []Result{PCG(a, bs[0], xs[0], m, opts)}
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-6
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	if m == nil {
		m = Identity{}
	}
	checkEvery := opts.CheckEvery
	if checkEvery <= 0 {
		checkEvery = DefaultCheckEvery
	}
	s0 := len(bs)
	results := make([]Result, s0)
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			for k := range results {
				results[k] = Result{Err: err}
			}
			return results
		}
	}

	// Interleaved panels at full width; the active width w shrinks as
	// columns deflate and every panel is repacked to the surviving lanes.
	xp := make([]float64, n*s0)
	rp := make([]float64, n*s0)
	pp := make([]float64, n*s0)
	zp := make([]float64, n*s0)
	qp := make([]float64, n*s0)
	zc := make([]float64, n) // per-column fallback scratch for applyPanelOf
	rc := make([]float64, n)
	cols := make([]int, s0) // active lane → original column
	bnorm := make([]float64, s0)
	rnorm := make([]float64, s0)
	rz := make([]float64, s0)
	lane := make([]float64, s0) // per-lane dot/α/β scratch
	done := make([]bool, s0)
	t := startTeam(n, zp)
	defer t.end()
	mv := newSpmv(a)
	up := &update{}

	w := s0
	for k := 0; k < s0; k++ {
		cols[k] = k
		bnorm[k] = norm2(bs[k])
		for i := 0; i < n; i++ {
			xp[i*s0+k] = xs[k][i]
		}
	}
	mv.mul(t, xp, qp, w)
	for k := 0; k < w; k++ {
		b := bs[k]
		for i := 0; i < n; i++ {
			rp[i*w+k] = b[i] - qp[i*w+k]
		}
	}
	dotLanes(rp[:n*w], rp[:n*w], w, lane)
	for k := 0; k < w; k++ {
		rnorm[k] = math.Sqrt(lane[k])
		switch {
		case bnorm[k] == 0:
			for i := range xs[k] {
				xs[k][i] = 0
			}
			results[k] = Result{Converged: true}
			done[k] = true
		case rnorm[k]/bnorm[k] <= tol:
			scatterLane(xs[k], xp, k, w, n)
			results[k] = Result{Converged: true, RelRes: rnorm[k] / bnorm[k]}
			done[k] = true
		}
	}
	w = deflate(n, w, done, cols, bnorm, rnorm, rz, xp, rp, pp)
	if w == 0 {
		return results
	}

	applyPanelOf(m, zp[:n*w], rp[:n*w], n, w, zc, rc)
	copy(pp[:n*w], zp[:n*w])
	dotLanes(rp[:n*w], zp[:n*w], w, rz)

	for it := 1; it <= maxIter; it++ {
		if opts.Ctx != nil && it%checkEvery == 0 {
			if err := opts.Ctx.Err(); err != nil {
				for k := 0; k < w; k++ {
					scatterLane(xs[cols[k]], xp, k, w, n)
					results[cols[k]] = Result{Iterations: it - 1, RelRes: rnorm[k] / bnorm[k], Err: err}
				}
				return results
			}
		}
		mv.mul(t, pp[:n*w], qp[:n*w], w)
		dotLanes(pp[:n*w], qp[:n*w], w, lane)
		finished := false
		broke := false
		for k := 0; k < w; k++ {
			pq := lane[k]
			if pq <= 0 || math.IsNaN(pq) {
				scatterLane(xs[cols[k]], xp, k, w, n)
				results[cols[k]] = Result{Iterations: it, Converged: false, RelRes: rnorm[k] / bnorm[k]}
				done[k] = true
				finished = true
				broke = true
				lane[k] = 0
				continue
			}
			lane[k] = rz[k] / pq // α
		}
		if broke {
			// Rare breakdown path: skip the frozen lanes explicitly so a
			// NaN in their q column cannot leak into the update.
			for i := 0; i < n; i++ {
				base := i * w
				for k := 0; k < w; k++ {
					if done[k] {
						continue
					}
					xp[base+k] += lane[k] * pp[base+k]
					rp[base+k] -= lane[k] * qp[base+k]
				}
			}
		} else {
			// Common path: no lane finished between the α loop and here
			// (converged lanes were deflated last iteration), so the update
			// is branch-free.
			*up = update{x: xp[:n*w], r: rp[:n*w], p: pp[:n*w], q: qp[:n*w], coef: lane[:w], w: w, xr: true}
			t.fork(up)
		}
		dotLanes(rp[:n*w], rp[:n*w], w, lane)
		for k := 0; k < w; k++ {
			if done[k] {
				continue
			}
			rnorm[k] = math.Sqrt(lane[k])
			if rnorm[k]/bnorm[k] <= tol {
				scatterLane(xs[cols[k]], xp, k, w, n)
				results[cols[k]] = Result{Iterations: it, Converged: true, RelRes: rnorm[k] / bnorm[k]}
				done[k] = true
				finished = true
			}
		}
		if finished {
			w = deflate(n, w, done, cols, bnorm, rnorm, rz, xp, rp, pp)
			if w == 0 {
				return results
			}
		}
		applyPanelOf(m, zp[:n*w], rp[:n*w], n, w, zc, rc)
		dotLanes(rp[:n*w], zp[:n*w], w, lane)
		for k := 0; k < w; k++ {
			beta := lane[k] / rz[k]
			rz[k] = lane[k]
			lane[k] = beta
		}
		*up = update{p: pp[:n*w], z: zp[:n*w], coef: lane[:w], w: w}
		t.fork(up)
	}
	for k := 0; k < w; k++ {
		scatterLane(xs[cols[k]], xp, k, w, n)
		results[cols[k]] = Result{Iterations: maxIter, Converged: false, RelRes: rnorm[k] / bnorm[k]}
	}
	return results
}

// scatterLane copies lane k of an interleaved n×w panel into dst.
func scatterLane(dst, panel []float64, k, w, n int) {
	for i := 0; i < n; i++ {
		dst[i] = panel[i*w+k]
	}
}

// deflate drops finished lanes: the persistent panels (x, r, p) are
// repacked in place from stride w to the surviving stride, and the
// per-lane bookkeeping slices are compacted to match. Repacking forward
// is safe because every write lands at an index ≤ the index it reads
// from. Returns the new width and resets done[:new width].
func deflate(n, w int, done []bool, cols []int, bnorm, rnorm, rz []float64, panels ...[]float64) int {
	nw := 0
	for k := 0; k < w; k++ {
		if done[k] {
			continue
		}
		if nw != k {
			cols[nw] = cols[k]
			bnorm[nw] = bnorm[k]
			rnorm[nw] = rnorm[k]
			rz[nw] = rz[k]
		}
		nw++
	}
	if nw == w {
		return w
	}
	for _, v := range panels {
		// Row-outer, lane-inner: the read cursor i*w+k then advances
		// strictly monotonically and never falls behind the write cursor
		// i*nw+t, so the in-place compaction cannot clobber unread lanes.
		for i := 0; i < n; i++ {
			t := 0
			for k := 0; k < w; k++ {
				if done[k] {
					continue
				}
				v[i*nw+t] = v[i*w+k]
				t++
			}
		}
	}
	for k := 0; k < nw; k++ {
		done[k] = false
	}
	return nw
}

// Package chol implements sparse Cholesky factorization P A Pᵀ = L Lᵀ for
// symmetric positive definite matrices, in the up-looking style of CSparse:
// elimination tree, per-row pattern via tree reach, and triangular solves.
// It is the workhorse behind the direct solver baseline (the paper uses
// CHOLMOD), the PCG preconditioner application, and the input to the
// sparse-approximate-inverse construction of Algorithm 1.
package chol

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/order"
	"repro/internal/sparse"
)

// ErrNotPD is returned when a nonpositive pivot is encountered.
var ErrNotPD = errors.New("chol: matrix is not positive definite")

// Factor is a sparse Cholesky factorization of a permuted matrix:
// A[Perm[i], Perm[j]] = (L Lᵀ)[i, j].
type Factor struct {
	N    int
	L    *sparse.CSC // lower triangular, diagonal first in each column
	Perm []int       // perm[newIdx] = oldIdx
	inv  []int       // inv[oldIdx] = newIdx

	// freshNNZ is the nnz L had when Perm was last computed; Refactor
	// holds its fill against it.
	freshNNZ int

	// The two-core solve schedule, built on the first Split call.
	splitOnce sync.Once
	split     *Split
}

// EliminationTree computes the elimination tree of the symmetric matrix a
// (full storage). parent[j] is j's parent, or -1 for roots.
func EliminationTree(a *sparse.CSC) []int { return permutedETree(a, nil, nil) }

// permutedETree is EliminationTree(a.PermuteSym(perm)) without forming
// the permuted matrix (the tree depends only on the pattern); nil perm
// and inv mean the identity.
func permutedETree(a *sparse.CSC, perm, inv []int) []int {
	n := a.Cols
	parent := make([]int, n)
	ancestor := make([]int, n)
	for k := 0; k < n; k++ {
		parent[k] = -1
		ancestor[k] = -1
		col := k
		if perm != nil {
			col = perm[k]
		}
		for p := a.ColPtr[col]; p < a.ColPtr[col+1]; p++ {
			i := a.RowIdx[p]
			if inv != nil {
				i = inv[i]
			}
			for i != -1 && i < k {
				next := ancestor[i]
				ancestor[i] = k
				if next == -1 {
					parent[i] = k
				}
				i = next
			}
		}
	}
	return parent
}

// ereach computes the nonzero pattern of row k of L from the row indices
// of column k of the permuted matrix: the set of columns j < k with
// L[k,j] ≠ 0, in topological (ascending) order suitable for the
// up-looking triangular solve. It returns the start index into s; the
// pattern occupies s[top:len(s)]. w is a workspace of flags (≥0 marked
// with k).
func ereach(col []int, k int, parent []int, s, w []int) int {
	top := len(s)
	w[k] = k
	for _, i := range col {
		if i >= k {
			continue
		}
		// Walk up the etree from i until hitting a marked vertex.
		length := 0
		for ; w[i] != k; i = parent[i] {
			s[length] = i
			length++
			w[i] = k
		}
		// Push path onto the output stack (reversed → topological).
		for length > 0 {
			length--
			top--
			s[top] = s[length]
		}
	}
	return top
}

// Options configures New.
type Options struct {
	// Perm overrides the computed ordering (order.Compute) when non-nil.
	Perm []int
}

// cscAdapter exposes a symmetric CSC matrix's off-diagonal structure as an
// ordering adjacency.
type cscAdapter struct{ a *sparse.CSC }

func (c cscAdapter) Len() int { return c.a.Cols }
func (c cscAdapter) Visit(u int, fn func(v int)) {
	for p := c.a.ColPtr[u]; p < c.a.ColPtr[u+1]; p++ {
		if v := c.a.RowIdx[p]; v != u {
			fn(v)
		}
	}
}

// New factorizes the SPD matrix a (full symmetric storage) with the chosen
// fill-reducing ordering.
func New(a *sparse.CSC, opts Options) (*Factor, error) {
	n := a.Cols
	if a.Rows != n {
		return nil, fmt.Errorf("chol: matrix must be square, got %dx%d", a.Rows, n)
	}
	perm := opts.Perm
	if perm == nil {
		perm = order.Compute(cscAdapter{a})
	}
	if !order.Validate(perm, n) {
		return nil, fmt.Errorf("chol: invalid permutation (length %d for n=%d)", len(perm), n)
	}
	c := a.PermuteSym(perm)
	parent := EliminationTree(c)
	l := symbolic(c, parent)
	if err := numeric(c, parent, l); err != nil {
		return nil, err
	}
	return newFactor(l, perm, l.NNZ()), nil
}

// newFactor wraps a computed L with its ordering.
func newFactor(l *sparse.CSC, perm []int, freshNNZ int) *Factor {
	f := &Factor{N: l.Cols, L: l, Perm: perm, inv: make([]int, l.Cols), freshNNZ: freshNNZ}
	for newIdx, oldIdx := range perm {
		f.inv[oldIdx] = newIdx
	}
	return f
}

// symbolic counts the nonzeros of every column of L with ereach and
// returns L with its column pointers set and RowIdx/Val allocated.
func symbolic(c *sparse.CSC, parent []int) *sparse.CSC {
	n := c.Cols
	colCount := make([]int, n)
	s := make([]int, n)
	w := make([]int, n)
	for i := range w {
		w[i] = -1
	}
	for k := 0; k < n; k++ {
		colCount[k]++ // diagonal
		top := ereach(c.RowIdx[c.ColPtr[k]:c.ColPtr[k+1]], k, parent, s, w)
		for t := top; t < n; t++ {
			colCount[s[t]]++
		}
	}
	l := &sparse.CSC{Rows: n, Cols: n, ColPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		l.ColPtr[j+1] = l.ColPtr[j] + colCount[j]
	}
	nnz := l.ColPtr[n]
	l.RowIdx = make([]int, nnz)
	l.Val = make([]float64, nnz)
	return l
}

// numeric fills L (laid out by symbolic) with the up-looking
// factorization of c, one row at a time.
func numeric(c *sparse.CSC, parent []int, l *sparse.CSC) error {
	n := c.Cols
	s := make([]int, n)
	w := make([]int, n)
	for i := range w {
		w[i] = -1
	}
	// next[j] = next free slot in column j (diagonal reserved at ColPtr[j]).
	next := make([]int, n)
	for j := 0; j < n; j++ {
		next[j] = l.ColPtr[j] + 1
		l.RowIdx[l.ColPtr[j]] = j // diagonal placeholder
	}
	slots := make([]int, n)
	x := make([]float64, n)
	for k := 0; k < n; k++ {
		col := c.RowIdx[c.ColPtr[k]:c.ColPtr[k+1]]
		top := ereach(col, k, parent, s, w)
		for t, j := range s[top:] {
			slots[t] = next[j]
			l.RowIdx[next[j]] = k
			next[j]++
		}
		if err := solveRow(l, x, k, col, c.Val[c.ColPtr[k]:c.ColPtr[k+1]], s[top:], slots); err != nil {
			return err
		}
	}
	return nil
}

// solveRow computes row k of L by the up-looking sparse triangular solve
// and stores it: colRows/colVals is column k of the permuted matrix,
// pattern the row's ereach order, and slots[t] the slot of L[k,
// pattern[t]], before which column pattern[t] holds exactly its rows
// above k. x is a zero workspace and is left zero.
func solveRow(l *sparse.CSC, x []float64, k int, colRows []int, colVals []float64, pattern, slots []int) error {
	var d float64
	for t, i := range colRows {
		if i < k {
			x[i] = colVals[t]
		} else if i == k {
			d = colVals[t]
		}
	}
	for t, j := range pattern {
		q := slots[t]
		lkj := x[j] / l.Val[l.ColPtr[j]]
		x[j] = 0
		for p := l.ColPtr[j] + 1; p < q; p++ {
			x[l.RowIdx[p]] -= l.Val[p] * lkj
		}
		d -= lkj * lkj
		l.Val[q] = lkj
	}
	if d <= 0 || math.IsNaN(d) {
		return fmt.Errorf("%w (pivot %d, value %g)", ErrNotPD, k, d)
	}
	l.Val[l.ColPtr[k]] = math.Sqrt(d)
	return nil
}

// NNZ returns the number of stored entries of L (the fill-in measure used
// for the memory columns of Tables 2 and 3).
func (f *Factor) NNZ() int { return f.L.NNZ() }

// MemBytes returns the bytes the factor stores: 8 per element of L's
// column pointers, row indices and values, and of the permutation and its
// inverse.
func (f *Factor) MemBytes() int64 {
	return 8 * int64(len(f.L.ColPtr)+len(f.L.RowIdx)+len(f.L.Val)+len(f.Perm)+len(f.inv))
}

// Solve solves A x = b in the original ordering, overwriting nothing;
// x is returned as a fresh slice.
func (f *Factor) Solve(b []float64) []float64 {
	x := make([]float64, f.N)
	f.SolveTo(x, b)
	return x
}

// SolveTo solves A x = b into x (len N). b and x may alias.
func (f *Factor) SolveTo(x, b []float64) {
	n := f.N
	y := make([]float64, n)
	for newIdx, oldIdx := range f.Perm {
		y[newIdx] = b[oldIdx]
	}
	f.LSolve(y)
	f.LTSolve(y)
	for newIdx, oldIdx := range f.Perm {
		x[oldIdx] = y[newIdx]
	}
}

// SolveToNoAlloc is SolveTo with a caller-provided permuted workspace y.
func (f *Factor) SolveToNoAlloc(x, b, y []float64) {
	for newIdx, oldIdx := range f.Perm {
		y[newIdx] = b[oldIdx]
	}
	f.LSolve(y)
	f.LTSolve(y)
	for newIdx, oldIdx := range f.Perm {
		x[oldIdx] = y[newIdx]
	}
}

// SolvePanelNoAlloc solves A X = B for an interleaved n×s panel: entry
// (i, k) of the panel lives at index i*s+k, so one pass over each column
// of L serves all s right-hand sides. x and b are n·s slices in the
// original ordering (they may alias); y is a caller-provided n·s permuted
// workspace. Per panel column the floating-point operations run in
// exactly the order SolveToNoAlloc would run them, so a panel solve is
// bit-identical to s scalar solves.
func (f *Factor) SolvePanelNoAlloc(x, b, y []float64, s int) {
	if s == 1 {
		f.SolveToNoAlloc(x, b, y)
		return
	}
	if s == 8 {
		f.solvePanel8(x, b, y)
		return
	}
	l := f.L
	// Explicit lane loops instead of copy(): the per-row segments are a
	// handful of floats, where the memmove call overhead costs more than
	// the move itself.
	for newIdx, oldIdx := range f.Perm {
		dst, src := y[newIdx*s:newIdx*s+s], b[oldIdx*s:oldIdx*s+s]
		_ = src[len(dst)-1]
		for k := range dst {
			dst[k] = src[k]
		}
	}
	for j := 0; j < f.N; j++ {
		p := l.ColPtr[j]
		d := l.Val[p]
		yj := y[j*s : j*s+s]
		for k := range yj {
			yj[k] /= d
		}
		for p++; p < l.ColPtr[j+1]; p++ {
			v := l.Val[p]
			ri := l.RowIdx[p] * s
			row := y[ri : ri+s]
			_ = yj[len(row)-1]
			for k := range row {
				row[k] -= v * yj[k]
			}
		}
	}
	for j := f.N - 1; j >= 0; j-- {
		p := l.ColPtr[j]
		yj := y[j*s : j*s+s]
		for q := p + 1; q < l.ColPtr[j+1]; q++ {
			v := l.Val[q]
			ri := l.RowIdx[q] * s
			row := y[ri : ri+s]
			_ = yj[len(row)-1]
			for k := range row {
				yj[k] -= v * row[k]
			}
		}
		d := l.Val[p]
		for k := range yj {
			yj[k] /= d
		}
	}
	for newIdx, oldIdx := range f.Perm {
		dst, src := x[oldIdx*s:oldIdx*s+s], y[newIdx*s:newIdx*s+s]
		_ = src[len(dst)-1]
		for k := range dst {
			dst[k] = src[k]
		}
	}
}

// solvePanel8 is SolvePanelNoAlloc specialized to panel width 8 — the
// width the batched solve path feeds it. The per-column lane vector is
// held in eight locals so each factor entry costs eight fused
// multiply-adds with no reloads of the pivot column, and the fixed-size
// array views remove every bounds check. The floating-point operations
// per lane run in exactly the generic order, so the specialization stays
// bit-identical to eight scalar solves.
func (f *Factor) solvePanel8(x, b, y []float64) {
	const s = 8
	l := f.L
	for newIdx, oldIdx := range f.Perm {
		*(*[s]float64)(y[newIdx*s:]) = *(*[s]float64)(b[oldIdx*s:])
	}
	for j := 0; j < f.N; j++ {
		p := l.ColPtr[j]
		d := l.Val[p]
		yj := (*[s]float64)(y[j*s:])
		y0 := yj[0] / d
		y1 := yj[1] / d
		y2 := yj[2] / d
		y3 := yj[3] / d
		y4 := yj[4] / d
		y5 := yj[5] / d
		y6 := yj[6] / d
		y7 := yj[7] / d
		yj[0], yj[1], yj[2], yj[3] = y0, y1, y2, y3
		yj[4], yj[5], yj[6], yj[7] = y4, y5, y6, y7
		for p++; p < l.ColPtr[j+1]; p++ {
			v := l.Val[p]
			row := (*[s]float64)(y[l.RowIdx[p]*s:])
			row[0] -= v * y0
			row[1] -= v * y1
			row[2] -= v * y2
			row[3] -= v * y3
			row[4] -= v * y4
			row[5] -= v * y5
			row[6] -= v * y6
			row[7] -= v * y7
		}
	}
	for j := f.N - 1; j >= 0; j-- {
		p := l.ColPtr[j]
		yj := (*[s]float64)(y[j*s:])
		y0, y1, y2, y3 := yj[0], yj[1], yj[2], yj[3]
		y4, y5, y6, y7 := yj[4], yj[5], yj[6], yj[7]
		for q := p + 1; q < l.ColPtr[j+1]; q++ {
			v := l.Val[q]
			row := (*[s]float64)(y[l.RowIdx[q]*s:])
			y0 -= v * row[0]
			y1 -= v * row[1]
			y2 -= v * row[2]
			y3 -= v * row[3]
			y4 -= v * row[4]
			y5 -= v * row[5]
			y6 -= v * row[6]
			y7 -= v * row[7]
		}
		d := l.Val[p]
		yj[0], yj[1], yj[2], yj[3] = y0/d, y1/d, y2/d, y3/d
		yj[4], yj[5], yj[6], yj[7] = y4/d, y5/d, y6/d, y7/d
	}
	for newIdx, oldIdx := range f.Perm {
		*(*[s]float64)(x[oldIdx*s:]) = *(*[s]float64)(y[newIdx*s:])
	}
}

// LSolve solves L y = y in place (permuted ordering).
func (f *Factor) LSolve(y []float64) {
	l := f.L
	for j := 0; j < f.N; j++ {
		p := l.ColPtr[j]
		yj := y[j] / l.Val[p]
		y[j] = yj
		for p++; p < l.ColPtr[j+1]; p++ {
			y[l.RowIdx[p]] -= l.Val[p] * yj
		}
	}
}

// LTSolve solves Lᵀ y = y in place (permuted ordering).
func (f *Factor) LTSolve(y []float64) {
	l := f.L
	for j := f.N - 1; j >= 0; j-- {
		p := l.ColPtr[j]
		s := y[j]
		for q := p + 1; q < l.ColPtr[j+1]; q++ {
			s -= l.Val[q] * y[l.RowIdx[q]]
		}
		y[j] = s / l.Val[p]
	}
}

// PermutedIndex maps an original vertex index to its position in the
// factor's elimination order.
func (f *Factor) PermutedIndex(oldIdx int) int { return f.inv[oldIdx] }

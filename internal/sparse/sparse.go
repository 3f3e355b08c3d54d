// Package sparse provides compressed sparse column (CSC) matrices, triplet
// (coordinate) assembly, and the small set of kernels the sparsifier stack
// needs: matrix–vector products, transposition, symmetric permutation,
// triangle extraction, and dense conversion for tests.
//
// All matrices are real (float64) and indices are 0-based. Column pointers
// follow the usual CSC convention: the nonzeros of column j occupy
// RowIdx[ColPtr[j]:ColPtr[j+1]] and Val[ColPtr[j]:ColPtr[j+1]], sorted by
// row index with no duplicates.
package sparse

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// CSC is a sparse matrix in compressed sparse column form.
type CSC struct {
	Rows, Cols int
	ColPtr     []int // length Cols+1
	RowIdx     []int // length NNZ, sorted within each column
	Val        []float64
}

// NNZ returns the number of stored entries.
func (a *CSC) NNZ() int { return len(a.RowIdx) }

// Clone returns a deep copy of a.
func (a *CSC) Clone() *CSC {
	b := &CSC{
		Rows:   a.Rows,
		Cols:   a.Cols,
		ColPtr: append([]int(nil), a.ColPtr...),
		RowIdx: append([]int(nil), a.RowIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	return b
}

// At returns the entry at (i, j) using binary search within column j.
// It is intended for tests and debugging, not inner loops.
func (a *CSC) At(i, j int) float64 {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	k := sort.SearchInts(a.RowIdx[lo:hi], i)
	if lo+k < hi && a.RowIdx[lo+k] == i {
		return a.Val[lo+k]
	}
	return 0
}

// MulVec computes y = A x. y must have length Rows and x length Cols;
// y is overwritten.
func (a *CSC) MulVec(x, y []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: A is %dx%d, x %d, y %d",
			a.Rows, a.Cols, len(x), len(y)))
	}
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < a.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			y[a.RowIdx[k]] += a.Val[k] * xj
		}
	}
}

// MulVecRows computes rows [lo, hi) of y = A x for a square A that is
// symmetric bit for bit, as a gather over columns lo..hi-1: y[i] sums
// A[j,i]·x[j] over column i's entries in ascending j. That is the row
// MulVec accumulates by scatter, term for term and in the same order.
// MulVec skips the terms with x[j] = 0, which the gather adds; each is a
// signed zero added to a sum that starts at +0 and never becomes −0, so
// it changes no bit. Rows are independent: disjoint row ranges may run
// concurrently, which is how the solver splits one product over two
// cores.
func (a *CSC) MulVecRows(x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := a.ColPtr[i]; k < a.ColPtr[i+1]; k++ {
			s += a.Val[k] * x[a.RowIdx[k]]
		}
		y[i] = s
	}
}

// MulPanel computes Y = A X for an interleaved Rows×s panel: entry (i, k)
// lives at index i*s+k, so one traversal of A serves all s columns — the
// bandwidth win behind the block-PCG solve path. x needs Cols·s entries
// and y Rows·s; y is overwritten. Per panel column the accumulation order
// matches MulVec exactly, except that MulVec's skip of zero x-entries is
// not taken (those terms add a signed zero, which changes no bit; see
// MulVecRows). MulPanelRows is the same product as a row gather.
func (a *CSC) MulPanel(x, y []float64, s int) {
	if len(x) < a.Cols*s || len(y) < a.Rows*s {
		panic(fmt.Sprintf("sparse: MulPanel dimension mismatch: A is %dx%d, x %d, y %d, width %d",
			a.Rows, a.Cols, len(x), len(y), s))
	}
	y = y[:a.Rows*s]
	for i := range y {
		y[i] = 0
	}
	if s == 8 {
		a.mulPanel8(x, y)
		return
	}
	for j := 0; j < a.Cols; j++ {
		xj := x[j*s : j*s+s]
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			v := a.Val[k]
			ri := a.RowIdx[k] * s
			row := y[ri : ri+s]
			// Bounded row slice plus the xj hint let the compiler drop the
			// per-lane bounds checks in the hot loop.
			_ = xj[len(row)-1]
			for c := range row {
				row[c] += v * xj[c]
			}
		}
	}
}

// mulPanel8 is the width-8 MulPanel kernel: the source lanes for each
// column live in eight locals across the column's entries, so every
// stored entry costs eight fused multiply-adds with no per-lane bounds
// checks or reloads. Accumulation order per lane matches the generic
// loop exactly. y must already be zeroed.
func (a *CSC) mulPanel8(x, y []float64) {
	const s = 8
	for j := 0; j < a.Cols; j++ {
		xj := (*[s]float64)(x[j*s:])
		x0, x1, x2, x3 := xj[0], xj[1], xj[2], xj[3]
		x4, x5, x6, x7 := xj[4], xj[5], xj[6], xj[7]
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			v := a.Val[k]
			row := (*[s]float64)(y[a.RowIdx[k]*s:])
			row[0] += v * x0
			row[1] += v * x1
			row[2] += v * x2
			row[3] += v * x3
			row[4] += v * x4
			row[5] += v * x5
			row[6] += v * x6
			row[7] += v * x7
		}
	}
}

// MulPanelRows computes rows [lo, hi) of Y = A X for an interleaved
// panel of width s and a square A that is symmetric bit for bit, as a
// gather over columns lo..hi-1. Per panel column every row sums the same
// terms in the same order as MulPanel's scatter, so the result is
// bit-identical; disjoint row ranges may run concurrently.
func (a *CSC) MulPanelRows(x, y []float64, s, lo, hi int) {
	if s == 8 {
		a.mulPanelRows8(x, y, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		row := y[i*s : i*s+s]
		for c := range row {
			row[c] = 0
		}
		for k := a.ColPtr[i]; k < a.ColPtr[i+1]; k++ {
			v := a.Val[k]
			rj := a.RowIdx[k] * s
			xj := x[rj : rj+s]
			_ = xj[len(row)-1]
			for c := range row {
				row[c] += v * xj[c]
			}
		}
	}
}

// mulPanelRows8 is the width-8 MulPanelRows kernel: the eight lane sums
// of a row live in locals across the row's entries.
func (a *CSC) mulPanelRows8(x, y []float64, lo, hi int) {
	const s = 8
	for i := lo; i < hi; i++ {
		var y0, y1, y2, y3, y4, y5, y6, y7 float64
		for k := a.ColPtr[i]; k < a.ColPtr[i+1]; k++ {
			v := a.Val[k]
			xj := (*[s]float64)(x[a.RowIdx[k]*s:])
			y0 += v * xj[0]
			y1 += v * xj[1]
			y2 += v * xj[2]
			y3 += v * xj[3]
			y4 += v * xj[4]
			y5 += v * xj[5]
			y6 += v * xj[6]
			y7 += v * xj[7]
		}
		row := (*[s]float64)(y[i*s:])
		row[0], row[1], row[2], row[3] = y0, y1, y2, y3
		row[4], row[5], row[6], row[7] = y4, y5, y6, y7
	}
}

// MulVecT computes y = Aᵀ x. y must have length Cols and x length Rows.
func (a *CSC) MulVecT(x, y []float64) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic(fmt.Sprintf("sparse: MulVecT dimension mismatch: A is %dx%d, x %d, y %d",
			a.Rows, a.Cols, len(x), len(y)))
	}
	a.MulVecRows(x, y, 0, a.Cols)
}

// Transpose returns Aᵀ as a new matrix.
func (a *CSC) Transpose() *CSC {
	t := &CSC{
		Rows:   a.Cols,
		Cols:   a.Rows,
		ColPtr: make([]int, a.Rows+1),
		RowIdx: make([]int, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	// Count entries per row of A (= column of Aᵀ).
	for _, i := range a.RowIdx {
		t.ColPtr[i+1]++
	}
	for i := 0; i < a.Rows; i++ {
		t.ColPtr[i+1] += t.ColPtr[i]
	}
	next := append([]int(nil), t.ColPtr[:a.Rows]...)
	for j := 0; j < a.Cols; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowIdx[k]
			p := next[i]
			next[i]++
			t.RowIdx[p] = j
			t.Val[p] = a.Val[k]
		}
	}
	return t
}

// PermuteSym returns B = P A Pᵀ where A is square and perm maps new indices
// to old ones: B[inew, jnew] = A[perm[inew], perm[jnew]]. A should be
// structurally symmetric for the result to be meaningful as a reordering.
func (a *CSC) PermuteSym(perm []int) *CSC {
	n := a.Cols
	if a.Rows != n || len(perm) != n {
		panic("sparse: PermuteSym needs a square matrix and a permutation of matching size")
	}
	inv := make([]int, n)
	for newIdx, oldIdx := range perm {
		inv[oldIdx] = newIdx
	}
	t := NewTriplet(n, n)
	for j := 0; j < n; j++ {
		jn := inv[j]
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			t.Add(inv[a.RowIdx[k]], jn, a.Val[k])
		}
	}
	return t.ToCSC()
}

// Lower returns the lower triangle of A including the diagonal.
func (a *CSC) Lower() *CSC {
	t := NewTriplet(a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if i := a.RowIdx[k]; i >= j {
				t.Add(i, j, a.Val[k])
			}
		}
	}
	return t.ToCSC()
}

// Diag returns a copy of the diagonal of A.
func (a *CSC) Diag() []float64 {
	n := a.Cols
	d := make([]float64, n)
	for j := 0; j < n; j++ {
		d[j] = a.At(j, j)
	}
	return d
}

// Dense expands A into a dense row-major matrix; for tests on small inputs.
func (a *CSC) Dense() [][]float64 {
	m := make([][]float64, a.Rows)
	for i := range m {
		m[i] = make([]float64, a.Cols)
	}
	for j := 0; j < a.Cols; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			m[a.RowIdx[k]][j] = a.Val[k]
		}
	}
	return m
}

// IsSymmetric reports whether A equals Aᵀ up to tol in every entry.
func (a *CSC) IsSymmetric(tol float64) bool {
	if a.Rows != a.Cols {
		return false
	}
	t := a.Transpose()
	if t.NNZ() != a.NNZ() {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		if a.ColPtr[j] != t.ColPtr[j] {
			return false
		}
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if a.RowIdx[k] != t.RowIdx[k] {
				return false
			}
			d := a.Val[k] - t.Val[k]
			if d > tol || d < -tol {
				return false
			}
		}
	}
	return true
}

// AddDiag returns a copy of A with d[i] added to entry (i,i). Diagonal
// entries missing from A's pattern are created.
func (a *CSC) AddDiag(d []float64) *CSC {
	if a.Rows != a.Cols || len(d) != a.Cols {
		panic("sparse: AddDiag needs a square matrix and a diagonal of matching size")
	}
	t := NewTriplet(a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			t.Add(a.RowIdx[k], j, a.Val[k])
		}
		t.Add(j, j, d[j])
	}
	return t.ToCSC()
}

// Scale multiplies every stored entry by s, in place.
func (a *CSC) Scale(s float64) {
	for k := range a.Val {
		a.Val[k] *= s
	}
}

// Triplet accumulates (row, col, value) entries; duplicates are summed when
// converting to CSC.
type Triplet struct {
	Rows, Cols int
	I, J       []int
	V          []float64
}

// NewTriplet returns an empty triplet accumulator with the given shape.
func NewTriplet(rows, cols int) *Triplet {
	return &Triplet{Rows: rows, Cols: cols}
}

// Add appends one entry. Panics on out-of-range indices.
func (t *Triplet) Add(i, j int, v float64) {
	if i < 0 || i >= t.Rows || j < 0 || j >= t.Cols {
		panic(fmt.Sprintf("sparse: triplet entry (%d,%d) out of range for %dx%d", i, j, t.Rows, t.Cols))
	}
	t.I = append(t.I, i)
	t.J = append(t.J, j)
	t.V = append(t.V, v)
}

// NNZ returns the number of accumulated entries (before duplicate merging).
func (t *Triplet) NNZ() int { return len(t.I) }

// ToCSC converts the accumulated triplets to CSC form, summing duplicates
// and dropping explicit zeros that result from cancellation is NOT done
// (stored zeros are kept so patterns remain predictable).
//
// Each column is sorted by row with slices.SortFunc, which runs the same
// pdqsort as sort.Slice, compare for compare and swap for swap, so
// duplicates are summed in a fixed order and Val is bit-identical to the
// sort.Slice assembly the package tests keep as an oracle.
func (t *Triplet) ToCSC() *CSC {
	nnz := len(t.I)
	a := &CSC{
		Rows:   t.Rows,
		Cols:   t.Cols,
		ColPtr: make([]int, t.Cols+1),
	}
	// Counting sort by column, then sort each column segment by row and merge.
	count := make([]int, t.Cols+1)
	for _, j := range t.J {
		count[j+1]++
	}
	for j := 0; j < t.Cols; j++ {
		count[j+1] += count[j]
	}
	rowIdx := make([]int, nnz)
	val := make([]float64, nnz)
	next := append([]int(nil), count[:t.Cols]...)
	for k := 0; k < nnz; k++ {
		j := t.J[k]
		p := next[j]
		next[j]++
		rowIdx[p] = t.I[k]
		val[p] = t.V[k]
	}
	outRow := rowIdx[:0]
	outVal := val[:0]
	type kv struct {
		i int
		v float64
	}
	var buf []kv
	pos := 0
	for j := 0; j < t.Cols; j++ {
		lo, hi := count[j], count[j+1]
		buf = buf[:0]
		for k := lo; k < hi; k++ {
			buf = append(buf, kv{rowIdx[k], val[k]})
		}
		slices.SortFunc(buf, func(x, y kv) int { return cmp.Compare(x.i, y.i) })
		for k := 0; k < len(buf); {
			i := buf[k].i
			s := buf[k].v
			k++
			for k < len(buf) && buf[k].i == i {
				s += buf[k].v
				k++
			}
			outRow = append(outRow, i)
			outVal = append(outVal, s)
			pos++
		}
		a.ColPtr[j+1] = pos
	}
	a.RowIdx = append([]int(nil), outRow...)
	a.Val = append([]float64(nil), outVal...)
	return a
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSC {
	a := &CSC{
		Rows:   n,
		Cols:   n,
		ColPtr: make([]int, n+1),
		RowIdx: make([]int, n),
		Val:    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		a.ColPtr[i+1] = i + 1
		a.RowIdx[i] = i
		a.Val[i] = 1
	}
	return a
}

package chol

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sparse"
)

// Reorder bound: a refactor under the base ordering is kept while its
// factor has at most reorderNum/reorderDen times the nnz of the factor
// whose ordering was last computed fresh — the same one-eighth slack the
// patched Laplacians allow stored zeros before compaction.
const (
	reorderNum = 9
	reorderDen = 8
)

// RefactorStats reports how Refactor produced its factor.
type RefactorStats struct {
	// Rows is the number of rows of L computed numerically; every other
	// row's values were copied from the base factor. It is N when every
	// column changed or the ordering was recomputed.
	Rows int
	// Reordered reports that the factor under the base ordering would
	// have passed the reorder bound, so a fresh ordering was computed
	// instead.
	Reordered bool
}

// Refactor factorizes a, a matrix that differs from the one base factors
// only in the columns changedCols (original indices; a nil slice means
// every column changed), under base's ordering. Row k of L can change
// only when k is a changed column or its ancestor in a's elimination
// tree, so only those rows are recomputed, with the up-looking kernel New
// uses; every other row's values are copied. When
// a's pattern differs from the base matrix's, the symbolic structure of
// the recomputed rows is redone and L's layout rebuilt around them; an
// unchanged pattern shares base's layout. The result equals New(a,
// Options{Perm: base.Perm}) bit for bit.
//
// When that factor's nnz would exceed 9/8 of the nnz base's ordering had
// when it was computed (a New factor's own, carried along a chain of
// refactors), Refactor instead returns New(a, Options{}) with a fresh
// ordering and reports Reordered. a must hold no duplicate entries
// within a column. base is not modified, and its layout may be shared
// with the result.
func Refactor(base *Factor, a *sparse.CSC, changedCols []int) (*Factor, RefactorStats, error) {
	n := a.Cols
	if a.Rows != n || n != base.N {
		return nil, RefactorStats{}, fmt.Errorf("chol: refactor of a %dx%d matrix against a factor of order %d", a.Rows, n, base.N)
	}
	fresh := base.freshNNZ
	if changedCols == nil {
		c := a.PermuteSym(base.Perm)
		parent := EliminationTree(c)
		l := symbolic(c, parent)
		if overBound(l.ColPtr[n], fresh) {
			return reorder(a)
		}
		if err := numeric(c, parent, l); err != nil {
			return nil, RefactorStats{}, err
		}
		return newFactor(l, base.Perm, fresh), RefactorStats{Rows: n}, nil
	}

	perm, inv := base.Perm, base.inv
	parent := permutedETree(a, perm, inv)

	// Dirty rows: the changed columns and their ancestors in a's tree.
	// Row k is a function of a restricted to the component of k in the
	// graph of a on vertices 0..k. An edit whose endpoints all miss the
	// new component leaves that component, and so row k, as it was; a
	// component that holds an endpoint makes k its ancestor.
	dirty := make([]bool, n)
	lo := n
	for _, col := range changedCols {
		if col < 0 || col >= n {
			return nil, RefactorStats{}, fmt.Errorf("chol: changed column %d out of range [0,%d)", col, n)
		}
		k := inv[col]
		dirty[k] = true
		lo = min(lo, k)
	}
	var rows []int
	for k := lo; k < n; k++ {
		if !dirty[k] {
			continue
		}
		rows = append(rows, k)
		if p := parent[k]; p >= 0 {
			dirty[p] = true
		}
	}

	// Symbolic pass over the dirty rows only: each row's column of
	// P A Pᵀ and its ereach pattern, in the order the numeric pass
	// consumes it.
	s := make([]int, n)
	w := make([]int, n)
	for i := range w {
		w[i] = -1
	}
	colPtr := make([]int, len(rows)+1)
	rowPtr := make([]int, len(rows)+1)
	var colRows, cols []int
	var colVals []float64
	for r, k := range rows {
		colRows, colVals = appendPermutedCol(colRows, colVals, a, perm[k], inv)
		colPtr[r+1] = len(colRows)
		top := ereach(colRows[colPtr[r]:], k, parent, s, w)
		cols = append(cols, s[top:]...)
		rowPtr[r+1] = len(cols)
	}

	bl := base.L
	oldDirty := 0
	for _, i := range bl.RowIdx {
		if dirty[i] {
			oldDirty++
		}
	}
	nnz := bl.ColPtr[n] - oldDirty + len(cols) + len(rows)
	if overBound(nnz, fresh) {
		return reorder(a)
	}

	// pos[t] is the slot of row rows[r] in column cols[t] of the new L.
	pos := make([]int, len(cols))
	var l *sparse.CSC
	if samePattern(bl, rows, rowPtr, cols, pos, oldDirty) {
		l = &sparse.CSC{Rows: n, Cols: n, ColPtr: bl.ColPtr, RowIdx: bl.RowIdx, Val: slices.Clone(bl.Val)}
	} else {
		l = relayout(bl, dirty, rows, rowPtr, cols, pos)
	}

	x := make([]float64, n)
	for r, k := range rows {
		c0, c1, p0, p1 := colPtr[r], colPtr[r+1], rowPtr[r], rowPtr[r+1]
		if err := solveRow(l, x, k, colRows[c0:c1], colVals[c0:c1], cols[p0:p1], pos[p0:p1]); err != nil {
			return nil, RefactorStats{}, err
		}
	}
	return newFactor(l, perm, fresh), RefactorStats{Rows: len(rows)}, nil
}

func overBound(nnz, fresh int) bool { return nnz*reorderDen > fresh*reorderNum }

// reorder is Refactor's fallback once the base ordering has drifted past
// the reorder bound.
func reorder(a *sparse.CSC) (*Factor, RefactorStats, error) {
	f, err := New(a, Options{})
	if err != nil {
		return nil, RefactorStats{}, err
	}
	return f, RefactorStats{Rows: f.N, Reordered: true}, nil
}

// appendPermutedCol appends column col of a with its rows mapped
// through inv and sorted ascending: column inv[col] of a.PermuteSym(perm)
// as PermuteSym stores it, for a with no duplicate entries.
func appendPermutedCol(rows []int, vals []float64, a *sparse.CSC, col int, inv []int) ([]int, []float64) {
	lo := len(rows)
	for p := a.ColPtr[col]; p < a.ColPtr[col+1]; p++ {
		rows = append(rows, inv[a.RowIdx[p]])
		vals = append(vals, a.Val[p])
	}
	sort.Sort(colEntries{rows[lo:], vals[lo:]})
	return rows, vals
}

// colEntries sorts one column's entries by row.
type colEntries struct {
	rows []int
	vals []float64
}

func (c colEntries) Len() int           { return len(c.rows) }
func (c colEntries) Less(i, j int) bool { return c.rows[i] < c.rows[j] }
func (c colEntries) Swap(i, j int) {
	c.rows[i], c.rows[j] = c.rows[j], c.rows[i]
	c.vals[i], c.vals[j] = c.vals[j], c.vals[i]
}

// samePattern reports whether the recomputed rows keep base's pattern:
// as many entries as the base rows held, each present in base's column.
// When they do, it fills pos with the entries' slots in base's layout.
func samePattern(bl *sparse.CSC, rows, rowPtr, cols, pos []int, oldDirty int) bool {
	if len(cols)+len(rows) != oldDirty {
		return false
	}
	for r, k := range rows {
		for t := rowPtr[r]; t < rowPtr[r+1]; t++ {
			j := cols[t]
			seg := bl.RowIdx[bl.ColPtr[j]:bl.ColPtr[j+1]]
			q, ok := slices.BinarySearch(seg, k)
			if !ok {
				return false
			}
			pos[t] = bl.ColPtr[j] + q
		}
	}
	return true
}

// relayout builds L's layout for a changed pattern: each column keeps
// base's entries in clean rows, with their values, merged by row with
// the recomputed rows' entries, whose slots it records in pos.
func relayout(bl *sparse.CSC, dirty []bool, rows, rowPtr, cols, pos []int) *sparse.CSC {
	n := bl.Cols
	// Recomputed entries bucketed by column, rows ascending within each
	// bucket because rows is ascending; the diagonal leads its column.
	bucket := make([]int, n+1)
	for _, k := range rows {
		bucket[k+1]++
	}
	for _, j := range cols {
		bucket[j+1]++
	}
	for j := 0; j < n; j++ {
		bucket[j+1] += bucket[j]
	}
	fill := slices.Clone(bucket[:n])
	brow := make([]int, bucket[n])
	bslot := make([]int, len(cols)) // entry t's index into brow
	for r, k := range rows {
		brow[fill[k]] = k
		fill[k]++
		for t := rowPtr[r]; t < rowPtr[r+1]; t++ {
			j := cols[t]
			bslot[t] = fill[j]
			brow[fill[j]] = k
			fill[j]++
		}
	}
	where := make([]int, len(brow)) // brow index → slot in the new L
	l := &sparse.CSC{Rows: n, Cols: n, ColPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		clean := 0
		for p := bl.ColPtr[j]; p < bl.ColPtr[j+1]; p++ {
			if !dirty[bl.RowIdx[p]] {
				clean++
			}
		}
		l.ColPtr[j+1] = l.ColPtr[j] + clean + bucket[j+1] - bucket[j]
	}
	l.RowIdx = make([]int, l.ColPtr[n])
	l.Val = make([]float64, l.ColPtr[n])
	for j := 0; j < n; j++ {
		q := l.ColPtr[j]
		p, pe := bl.ColPtr[j], bl.ColPtr[j+1]
		b, be := bucket[j], bucket[j+1]
		for p < pe || b < be {
			for p < pe && dirty[bl.RowIdx[p]] {
				p++
			}
			if p < pe && (b == be || bl.RowIdx[p] < brow[b]) {
				l.RowIdx[q] = bl.RowIdx[p]
				l.Val[q] = bl.Val[p]
				p++
			} else if b < be {
				l.RowIdx[q] = brow[b]
				where[b] = q
				b++
			} else {
				continue
			}
			q++
		}
	}
	for t, b := range bslot {
		pos[t] = where[b]
	}
	return l
}

package chol

import (
	"container/heap"
	"math"
	"slices"
)

// Split is a schedule for running one factor's triangular solves on two
// cores with results bit-identical to SolveToNoAlloc and
// SolvePanelNoAlloc.
//
// Subtrees of L's elimination tree are independent: column j of L holds
// rows only on j's path to its root, so eliminating one subtree never
// touches another. The plan splits the tree into two bins of whole
// subtrees and a set T of the ancestors left over, which is closed
// upwards. It stores a relabelled copy of L with bin 0's columns first,
// then bin 1's, then T's, each group in ascending original order, so the
// two cores write disjoint, contiguous stretches of the work vector.
// Within a bin column the rows in the bin precede the rows in T, because
// a path through the tree climbs in index.
//
// A solve runs in four steps, and every unknown's sum keeps the order the
// sequential kernels give it:
//  1. Forward (Forward, one call per bin, concurrently): each bin's
//     columns eliminate into the bin's own rows only. A bin row's updates
//     all come from its own bin, in ascending column order as before.
//  2. Forward on T (Middle): each T row subtracts its entries as a dot
//     product in ascending original column order, the order in which the
//     column sweep would have applied them.
//  3. Backward on T (Middle): T's rows depend on T only.
//  4. Backward (Backward, one call per bin, concurrently): each bin column
//     reads its bin rows and then its T rows, in ascending original row
//     order as before.
type Split struct {
	n    int
	bin1 int // bin 0 is columns [0, bin1), bin 1 is [bin1, t0)
	t0   int // T is columns [t0, n)

	perm   []int32 // perm[c] is the original index of relabelled unknown c
	colPtr []int32 // relabelled L
	mid    []int32 // end of column c's rows in its own bin; T's rows follow
	rowIdx []int32
	val    []float64

	// T's rows of L below the diagonal, row c of T at tPtr[c-t0]:tPtr[c-t0+1],
	// columns relabelled and in ascending original order.
	tPtr []int32
	tCol []int32
	tVal []float64
}

// Split returns the factor's two-core solve schedule, built on the first
// call and kept with the factor. It is nil when L's pattern does not nest
// under the elimination tree its first subdiagonal entries define, which
// holds for every factor New and Refactor compute but not for an
// arbitrary L assembled by hand, or when L has more entries than int32
// indices address.
func (f *Factor) Split() *Split {
	f.splitOnce.Do(func() { f.split = newSplit(f) })
	return f.split
}

// Bins returns the relabelled column ranges of the schedule: bin 0 is
// [0, bin1), bin 1 is [bin1, t0) and T is [t0, n).
func (sp *Split) Bins() (bin1, t0, n int) { return sp.bin1, sp.t0, sp.n }

// MemBytes returns the bytes the schedule stores.
func (sp *Split) MemBytes() int64 {
	ints := len(sp.perm) + len(sp.colPtr) + len(sp.mid) + len(sp.rowIdx) + len(sp.tPtr) + len(sp.tCol)
	return 4*int64(ints) + 8*int64(len(sp.val)+len(sp.tVal))
}

// subtrees is a max-heap of candidate subtree roots by weight, ties
// broken by the lower index so the plan is deterministic.
type subtrees struct {
	root   []int
	weight []int
}

func (h *subtrees) Len() int { return len(h.root) }
func (h *subtrees) Less(a, b int) bool {
	wa, wb := h.weight[h.root[a]], h.weight[h.root[b]]
	return wa > wb || wa == wb && h.root[a] < h.root[b]
}
func (h *subtrees) Swap(a, b int) { h.root[a], h.root[b] = h.root[b], h.root[a] }
func (h *subtrees) Push(x any)    { h.root = append(h.root, x.(int)) }
func (h *subtrees) Pop() any {
	r := h.root[len(h.root)-1]
	h.root = h.root[:len(h.root)-1]
	return r
}

// newSplit plans the two-core schedule for f. The cost of a column is its
// nnz in L, which it pays once per sweep. The greedy split starts from
// the tree's roots and keeps moving the heaviest remaining subtree's root
// into T, exposing its children. After each move the makespan is bounded
// by T + (S + m)/2, the cost of T plus the longest-processing-time bound
// for two bins over candidate subtrees of total S and largest m; the
// plan keeps the expansion with the lowest bound and stops once T alone
// reaches it.
func newSplit(f *Factor) *Split {
	l, n := f.L, f.N
	if l.NNZ() > math.MaxInt32 {
		return nil
	}
	parent := make([]int, n)
	weight := make([]int, n)
	childPtr := make([]int, n+1)
	for j := 0; j < n; j++ {
		p0, p1 := l.ColPtr[j], l.ColPtr[j+1]
		if p0 == p1 || l.RowIdx[p0] != j {
			return nil
		}
		parent[j] = -1
		if p1-p0 > 1 {
			parent[j] = l.RowIdx[p0+1]
			childPtr[parent[j]+1]++
		}
	}
	for j := 0; j < n; j++ {
		weight[j] += l.ColPtr[j+1] - l.ColPtr[j]
		if p := parent[j]; p >= 0 {
			weight[p] += weight[j] // j's children are below j, so weight[j] is final
		}
		childPtr[j+1] += childPtr[j]
	}
	children := make([]int, childPtr[n])
	fill := slices.Clone(childPtr[:n])
	for j := 0; j < n; j++ {
		if p := parent[j]; p >= 0 {
			children[fill[p]] = j
			fill[p]++
		}
	}

	h := &subtrees{weight: weight}
	cand := 0 // S: total weight of the candidate subtrees
	for j := 0; j < n; j++ {
		if parent[j] < 0 {
			h.root = append(h.root, j)
			cand += weight[j]
		}
	}
	heap.Init(h)
	serial := 0 // cost of T
	bound := func() int {
		m := 0
		if h.Len() > 0 {
			m = weight[h.root[0]]
		}
		return serial + (cand+m+1)/2
	}
	var expanded []int
	best, keep := bound(), 0
	for h.Len() > 0 && serial < best {
		r := heap.Pop(h).(int)
		own := l.ColPtr[r+1] - l.ColPtr[r]
		serial += own
		cand -= own
		for _, c := range children[childPtr[r]:childPtr[r+1]] {
			heap.Push(h, c)
		}
		expanded = append(expanded, r)
		if b := bound(); b < best {
			best, keep = b, len(expanded)
		}
	}

	// Group 2 is T; the candidates, the subtrees hanging off T and the
	// roots outside it, go to the lighter bin heaviest first.
	group := make([]int8, n)
	for _, r := range expanded[:keep] {
		group[r] = 2
	}
	var roots []int
	for j := 0; j < n; j++ {
		if group[j] != 2 && (parent[j] < 0 || group[parent[j]] == 2) {
			roots = append(roots, j)
		}
	}
	slices.SortFunc(roots, func(a, b int) int {
		if weight[a] != weight[b] {
			return weight[b] - weight[a]
		}
		return a - b
	})
	var load [2]int
	for _, r := range roots {
		b := int8(0)
		if load[1] < load[0] {
			b = 1
		}
		group[r] = b
		load[b] += weight[r]
	}
	for j := n - 1; j >= 0; j-- {
		if p := parent[j]; p >= 0 && group[j] != 2 && group[p] != 2 {
			group[j] = group[p]
		}
	}
	return layoutSplit(f, group)
}

// layoutSplit builds the relabelled copy of L and T's row CSR for a
// grouping of the columns (0 and 1 for the bins, 2 for T). It returns
// nil when a column's rows leave its bin for anything but T, or reach a
// bin row after a T row.
func layoutSplit(f *Factor, group []int8) *Split {
	l, n := f.L, f.N
	var size [3]int
	for _, g := range group {
		size[g]++
	}
	sp := &Split{n: n, bin1: size[0], t0: size[0] + size[1]}
	next := [3]int{0, sp.bin1, sp.t0}
	relabel := make([]int32, n)
	for j, g := range group {
		relabel[j] = int32(next[g])
		next[g]++
	}
	sp.perm = make([]int32, n)
	for j, c := range relabel {
		sp.perm[c] = int32(f.Perm[j])
	}

	sp.colPtr = make([]int32, n+1)
	for j := 0; j < n; j++ {
		sp.colPtr[relabel[j]+1] = int32(l.ColPtr[j+1] - l.ColPtr[j])
	}
	for c := 0; c < n; c++ {
		sp.colPtr[c+1] += sp.colPtr[c]
	}
	sp.mid = make([]int32, n)
	sp.rowIdx = make([]int32, l.NNZ())
	sp.val = make([]float64, l.NNZ())
	tPtr := make([]int32, n-sp.t0+1)
	for j := 0; j < n; j++ {
		c := relabel[j]
		q := sp.colPtr[c]
		sp.mid[c] = q + 1
		inT := false
		for p := l.ColPtr[j]; p < l.ColPtr[j+1]; p++ {
			i := l.RowIdx[p]
			switch gi := group[i]; {
			case i == j:
			case gi == 2:
				inT = true
				tPtr[int(relabel[i])-sp.t0+1]++
			case gi != group[j] || inT:
				return nil
			default:
				sp.mid[c] = q + 1
			}
			sp.rowIdx[q] = relabel[i]
			sp.val[q] = l.Val[p]
			q++
		}
	}
	for t := 0; t+1 < len(tPtr); t++ {
		tPtr[t+1] += tPtr[t]
	}
	sp.tPtr = tPtr
	sp.tCol = make([]int32, tPtr[len(tPtr)-1])
	sp.tVal = make([]float64, len(sp.tCol))
	at := slices.Clone(tPtr)
	for j := 0; j < n; j++ { // ascending original column order
		for p := l.ColPtr[j] + 1; p < l.ColPtr[j+1]; p++ {
			if i := l.RowIdx[p]; group[i] == 2 {
				t := int(relabel[i]) - sp.t0
				sp.tCol[at[t]] = relabel[j]
				sp.tVal[at[t]] = l.Val[p]
				at[t]++
			}
		}
	}
	return sp
}

// binRange returns the relabelled columns of bin part.
func (sp *Split) binRange(part int) (lo, hi int) {
	if part == 0 {
		return 0, sp.bin1
	}
	return sp.bin1, sp.t0
}

// Forward runs bin part's share of the forward solve of A x = b for an
// interleaved panel of width s (s = 1 for a vector): it gathers the
// bin's unknowns from b into the relabelled work vector y (part 0 also
// gathers T's) and eliminates the bin's columns. Forward(0) and
// Forward(1) write disjoint entries of y and may run concurrently; both
// finish before Middle.
func (sp *Split) Forward(part int, b, y []float64, s int) {
	lo, hi := sp.binRange(part)
	sp.gather(b, y, s, lo, hi)
	if part == 0 {
		sp.gather(b, y, s, sp.t0, sp.n)
	}
	switch s {
	case 1:
		sp.forward1(y, lo, hi)
	case 8:
		sp.forward8(y, lo, hi)
	default:
		sp.forwardPanel(y, s, lo, hi)
	}
}

// Middle finishes the forward solve on T's rows and runs the backward
// solve on T's columns, after both Forward calls and before either
// Backward.
func (sp *Split) Middle(y []float64, s int) {
	switch s {
	case 1:
		sp.forwardT1(y)
		sp.backward1(y, sp.t0, sp.n)
	case 8:
		sp.forwardT8(y)
		sp.backward8(y, sp.t0, sp.n)
	default:
		sp.forwardTPanel(y, s)
		sp.backwardPanel(y, s, sp.t0, sp.n)
	}
}

// Backward runs bin part's share of the backward solve and scatters the
// bin's unknowns from y to x (part 0 also T's). Backward(0) and
// Backward(1) may run concurrently.
func (sp *Split) Backward(part int, x, y []float64, s int) {
	lo, hi := sp.binRange(part)
	switch s {
	case 1:
		sp.backward1(y, lo, hi)
	case 8:
		sp.backward8(y, lo, hi)
	default:
		sp.backwardPanel(y, s, lo, hi)
	}
	sp.scatter(x, y, s, lo, hi)
	if part == 0 {
		sp.scatter(x, y, s, sp.t0, sp.n)
	}
}

// gather and scatter move unknowns [lo, hi) between the original
// ordering and the relabelled work vector, lane loops as in
// SolvePanelNoAlloc.
func (sp *Split) gather(b, y []float64, s, lo, hi int) {
	if s == 1 {
		for c := lo; c < hi; c++ {
			y[c] = b[sp.perm[c]]
		}
		return
	}
	if s == 8 {
		for c := lo; c < hi; c++ {
			*(*[8]float64)(y[c*8:]) = *(*[8]float64)(b[int(sp.perm[c])*8:])
		}
		return
	}
	for c := lo; c < hi; c++ {
		o := int(sp.perm[c]) * s
		dst, src := y[c*s:c*s+s], b[o:o+s]
		_ = src[len(dst)-1]
		for k := range dst {
			dst[k] = src[k]
		}
	}
}

func (sp *Split) scatter(x, y []float64, s, lo, hi int) {
	if s == 1 {
		for c := lo; c < hi; c++ {
			x[sp.perm[c]] = y[c]
		}
		return
	}
	if s == 8 {
		for c := lo; c < hi; c++ {
			*(*[8]float64)(x[int(sp.perm[c])*8:]) = *(*[8]float64)(y[c*8:])
		}
		return
	}
	for c := lo; c < hi; c++ {
		o := int(sp.perm[c]) * s
		dst, src := x[o:o+s], y[c*s:c*s+s]
		_ = src[len(dst)-1]
		for k := range dst {
			dst[k] = src[k]
		}
	}
}

// forward1 eliminates columns [lo, hi) of a bin into the bin's rows, as
// LSolve does.
func (sp *Split) forward1(y []float64, lo, hi int) {
	cp, mid, ri, v := sp.colPtr, sp.mid, sp.rowIdx, sp.val
	for j := lo; j < hi; j++ {
		p := cp[j]
		yj := y[j] / v[p]
		y[j] = yj
		for p++; p < mid[j]; p++ {
			y[ri[p]] -= v[p] * yj
		}
	}
}

// forwardT1 solves T's rows as dot products over their entries.
func (sp *Split) forwardT1(y []float64) {
	for c := sp.t0; c < sp.n; c++ {
		s := y[c]
		for q := sp.tPtr[c-sp.t0]; q < sp.tPtr[c-sp.t0+1]; q++ {
			s -= sp.tVal[q] * y[sp.tCol[q]]
		}
		y[c] = s / sp.val[sp.colPtr[c]]
	}
}

// backward1 runs the backward solve over columns [lo, hi), as LTSolve
// does.
func (sp *Split) backward1(y []float64, lo, hi int) {
	cp, ri, v := sp.colPtr, sp.rowIdx, sp.val
	for j := hi - 1; j >= lo; j-- {
		p := cp[j]
		s := y[j]
		for q := p + 1; q < cp[j+1]; q++ {
			s -= v[q] * y[ri[q]]
		}
		y[j] = s / v[p]
	}
}

// forwardPanel, forwardTPanel and backwardPanel are the scalar kernels
// for a panel of width s, in SolvePanelNoAlloc's per-lane order.
func (sp *Split) forwardPanel(y []float64, s, lo, hi int) {
	cp, mid, ri, v := sp.colPtr, sp.mid, sp.rowIdx, sp.val
	for j := lo; j < hi; j++ {
		p := cp[j]
		d := v[p]
		yj := y[j*s : j*s+s]
		for k := range yj {
			yj[k] /= d
		}
		for p++; p < mid[j]; p++ {
			vp := v[p]
			r := int(ri[p]) * s
			row := y[r : r+s]
			_ = yj[len(row)-1]
			for k := range row {
				row[k] -= vp * yj[k]
			}
		}
	}
}

func (sp *Split) forwardTPanel(y []float64, s int) {
	for c := sp.t0; c < sp.n; c++ {
		yc := y[c*s : c*s+s]
		for q := sp.tPtr[c-sp.t0]; q < sp.tPtr[c-sp.t0+1]; q++ {
			vq := sp.tVal[q]
			o := int(sp.tCol[q]) * s
			src := y[o : o+s]
			_ = src[len(yc)-1]
			for k := range yc {
				yc[k] -= vq * src[k]
			}
		}
		d := sp.val[sp.colPtr[c]]
		for k := range yc {
			yc[k] /= d
		}
	}
}

func (sp *Split) backwardPanel(y []float64, s, lo, hi int) {
	cp, ri, v := sp.colPtr, sp.rowIdx, sp.val
	for j := hi - 1; j >= lo; j-- {
		p := cp[j]
		yj := y[j*s : j*s+s]
		for q := p + 1; q < cp[j+1]; q++ {
			vq := v[q]
			r := int(ri[q]) * s
			row := y[r : r+s]
			_ = yj[len(row)-1]
			for k := range row {
				yj[k] -= vq * row[k]
			}
		}
		d := v[p]
		for k := range yj {
			yj[k] /= d
		}
	}
}

// forward8, forwardT8 and backward8 are the width-8 kernels, with the
// lanes in locals as in solvePanel8 and the same per-lane order.
func (sp *Split) forward8(y []float64, lo, hi int) {
	const s = 8
	cp, mid, ri, v := sp.colPtr, sp.mid, sp.rowIdx, sp.val
	for j := lo; j < hi; j++ {
		p := cp[j]
		d := v[p]
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
		for p++; p < mid[j]; p++ {
			vp := v[p]
			row := (*[s]float64)(y[int(ri[p])*s:])
			row[0] -= vp * y0
			row[1] -= vp * y1
			row[2] -= vp * y2
			row[3] -= vp * y3
			row[4] -= vp * y4
			row[5] -= vp * y5
			row[6] -= vp * y6
			row[7] -= vp * y7
		}
	}
}

func (sp *Split) forwardT8(y []float64) {
	const s = 8
	for c := sp.t0; c < sp.n; c++ {
		yc := (*[s]float64)(y[c*s:])
		y0, y1, y2, y3 := yc[0], yc[1], yc[2], yc[3]
		y4, y5, y6, y7 := yc[4], yc[5], yc[6], yc[7]
		for q := sp.tPtr[c-sp.t0]; q < sp.tPtr[c-sp.t0+1]; q++ {
			vq := sp.tVal[q]
			src := (*[s]float64)(y[int(sp.tCol[q])*s:])
			y0 -= vq * src[0]
			y1 -= vq * src[1]
			y2 -= vq * src[2]
			y3 -= vq * src[3]
			y4 -= vq * src[4]
			y5 -= vq * src[5]
			y6 -= vq * src[6]
			y7 -= vq * src[7]
		}
		d := sp.val[sp.colPtr[c]]
		yc[0], yc[1], yc[2], yc[3] = y0/d, y1/d, y2/d, y3/d
		yc[4], yc[5], yc[6], yc[7] = y4/d, y5/d, y6/d, y7/d
	}
}

func (sp *Split) backward8(y []float64, lo, hi int) {
	const s = 8
	cp, ri, v := sp.colPtr, sp.rowIdx, sp.val
	for j := hi - 1; j >= lo; j-- {
		p := cp[j]
		yj := (*[s]float64)(y[j*s:])
		y0, y1, y2, y3 := yj[0], yj[1], yj[2], yj[3]
		y4, y5, y6, y7 := yj[4], yj[5], yj[6], yj[7]
		for q := p + 1; q < cp[j+1]; q++ {
			vq := v[q]
			row := (*[s]float64)(y[int(ri[q])*s:])
			y0 -= vq * row[0]
			y1 -= vq * row[1]
			y2 -= vq * row[2]
			y3 -= vq * row[3]
			y4 -= vq * row[4]
			y5 -= vq * row[5]
			y6 -= vq * row[6]
			y7 -= vq * row[7]
		}
		d := v[p]
		yj[0], yj[1], yj[2], yj[3] = y0/d, y1/d, y2/d, y3/d
		yj[4], yj[5], yj[6], yj[7] = y4/d, y5/d, y6/d, y7/d
	}
}

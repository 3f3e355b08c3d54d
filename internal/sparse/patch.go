package sparse

import (
	"cmp"
	"slices"
	"sort"
)

// This file holds the in-place patching primitives behind the streaming
// delta path: instead of reassembling a CSC matrix from triplets after a
// small edit (O(nnz log nnz)), callers locate and overwrite the touched
// entries (O(k log deg)), occasionally paying one O(nnz) merge pass when
// the sparsity pattern must grow.

// FindEntry returns the storage index of entry (i, j), or -1 if the
// position is not in the pattern. Binary search within column j.
func (a *CSC) FindEntry(i, j int) int {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	k := sort.SearchInts(a.RowIdx[lo:hi], i)
	if lo+k < hi && a.RowIdx[lo+k] == i {
		return lo + k
	}
	return -1
}

// CloneValues returns a copy of a that shares the (immutable) pattern
// arrays ColPtr/RowIdx and owns a fresh Val slice — the cheap clone for
// patches that only change values, which is the common streaming case.
func (a *CSC) CloneValues() *CSC {
	return &CSC{
		Rows:   a.Rows,
		Cols:   a.Cols,
		ColPtr: a.ColPtr,
		RowIdx: a.RowIdx,
		Val:    append([]float64(nil), a.Val...),
	}
}

// Entry is one (row, col, value) coordinate for InsertEntries.
type Entry struct {
	I, J int
	V    float64
}

// InsertEntries returns a new matrix equal to a with the given entries
// merged into the pattern in one O(nnz + k log k) pass. An entry whose
// position already exists overwrites the stored value instead of
// duplicating the slot. The receiver is not modified.
func (a *CSC) InsertEntries(entries []Entry) *CSC {
	if len(entries) == 0 {
		return a.CloneValues()
	}
	ins := append([]Entry(nil), entries...)
	slices.SortFunc(ins, func(x, y Entry) int {
		if c := cmp.Compare(x.J, y.J); c != 0 {
			return c
		}
		return cmp.Compare(x.I, y.I)
	})
	out := &CSC{
		Rows:   a.Rows,
		Cols:   a.Cols,
		ColPtr: make([]int, a.Cols+1),
		RowIdx: make([]int, 0, a.NNZ()+len(ins)),
		Val:    make([]float64, 0, a.NNZ()+len(ins)),
	}
	p := 0 // cursor into ins
	for j := 0; j < a.Cols; j++ {
		k := a.ColPtr[j]
		hi := a.ColPtr[j+1]
		for k < hi || (p < len(ins) && ins[p].J == j) {
			switch {
			case p >= len(ins) || ins[p].J != j || (k < hi && a.RowIdx[k] < ins[p].I):
				out.RowIdx = append(out.RowIdx, a.RowIdx[k])
				out.Val = append(out.Val, a.Val[k])
				k++
			case k < hi && a.RowIdx[k] == ins[p].I:
				// Position exists: overwrite, consume both.
				out.RowIdx = append(out.RowIdx, a.RowIdx[k])
				out.Val = append(out.Val, ins[p].V)
				k++
				p++
			default:
				out.RowIdx = append(out.RowIdx, ins[p].I)
				out.Val = append(out.Val, ins[p].V)
				p++
			}
		}
		out.ColPtr[j+1] = len(out.RowIdx)
	}
	return out
}

// DropZeros returns a copy of a without stored zero entries; diagonal
// positions are always kept (factorizations want a structurally
// nonsingular diagonal). Patched Laplacians accumulate stored zeros as
// edge removals blank out slots; callers compact once the dead fraction
// is worth the O(nnz) pass.
func (a *CSC) DropZeros() *CSC {
	out := &CSC{
		Rows:   a.Rows,
		Cols:   a.Cols,
		ColPtr: make([]int, a.Cols+1),
		RowIdx: make([]int, 0, a.NNZ()),
		Val:    make([]float64, 0, a.NNZ()),
	}
	for j := 0; j < a.Cols; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if a.Val[k] == 0 && a.RowIdx[k] != j {
				continue
			}
			out.RowIdx = append(out.RowIdx, a.RowIdx[k])
			out.Val = append(out.Val, a.Val[k])
		}
		out.ColPtr[j+1] = len(out.RowIdx)
	}
	return out
}

package lap

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// FuzzLapPatch holds Patch to cold assembly: the fuzz inputs seed a small
// graph and a chain of one or two valid deltas (reweights, removals, new
// edges, and re-adding an edge an earlier step removed, which reuses its
// stored-zero slot). After every step the patched Laplacian must match
// Laplacian of the new graph under the base shift — off-diagonals bit
// for bit, diagonals within wantClose's ULP bound — and the stored-zero
// bookkeeping must match an actual count. The patched Laplacian, and its
// DropZeros compaction, must also stay symmetric bit for bit: the
// solver's split products gather rows, which matches the sequential
// scatter only on a bitwise symmetric matrix.
func FuzzLapPatch(f *testing.F) {
	f.Add(int64(1), uint8(8), []byte{0, 1, 0, 2, 2, 3})
	f.Add(int64(2), uint8(12), []byte{1, 4, 0, 255, 1, 4, 2, 0, 5})
	f.Add(int64(3), uint8(5), []byte{2, 0, 3, 1, 1, 1, 0, 2, 1})
	f.Fuzz(func(t *testing.T, seed int64, nb uint8, ops []byte) {
		if len(ops) > 200 {
			return
		}
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(t, r, 2+int(nb)%20, int(nb)%23)
		shift := Shift(g, 0)
		mat := Laplacian(g, shift)
		zeros := 0
		var removed []graph.Edge
		for step, chunk := range splitOps(ops) {
			d := patchDelta(g, removed, chunk)
			p, err := d.ApplyPatch(g)
			if err != nil {
				return // an invalid delta has no Laplacian to compare
			}
			patched, dz, err := Patch(mat, p.G, shift, Script{Reweighted: p.Reweighted, Added: p.Added, Removed: p.Removed})
			if err != nil {
				t.Fatalf("step %d: Patch: %v", step, err)
			}
			zeros += dz
			cold := Laplacian(p.G, shift)
			for j := 0; j < g.N; j++ {
				for i := 0; i < g.N; i++ {
					wantClose(t, fmt.Sprintf("step %d", step), i, j, patched.At(i, j), cold.At(i, j))
				}
			}
			actual := 0
			for j := 0; j < patched.Cols; j++ {
				for k := patched.ColPtr[j]; k < patched.ColPtr[j+1]; k++ {
					if patched.Val[k] == 0 && patched.RowIdx[k] != j {
						actual++
					}
				}
			}
			if actual != zeros {
				t.Fatalf("step %d: %d stored zeros, bookkeeping says %d", step, actual, zeros)
			}
			if !patched.IsSymmetric(0) || !patched.DropZeros().IsSymmetric(0) {
				t.Fatalf("step %d: patched Laplacian is not bitwise symmetric", step)
			}
			removed = append(removed, p.Removed...)
			g, mat = p.G, patched
		}
	})
}

// splitOps cuts the fuzz ops at the first 255 byte into at most two
// delta chunks.
func splitOps(ops []byte) [][]byte {
	for i, b := range ops {
		if b == 255 {
			return [][]byte{ops[:i], ops[i+1:]}
		}
	}
	return [][]byte{ops}
}

// patchDelta decodes ops three bytes at a time into a delta against g:
// reweight or remove an edge of g, re-add an edge an earlier step
// removed, or add an arbitrary pair. Each edge is named at most once,
// so the delta is valid unless it names a self loop.
func patchDelta(g *graph.Graph, removed []graph.Edge, ops []byte) graph.Delta {
	var d graph.Delta
	used := map[[2]int]bool{}
	name := func(u, v int) bool {
		k := [2]int{min(u, v), max(u, v)}
		if used[k] {
			return false
		}
		used[k] = true
		return true
	}
	for i := 0; i+2 < len(ops); i += 3 {
		a, b := int(ops[i+1]), int(ops[i+2])
		w := 0.25 + float64(b)/64
		kind := ops[i] % 4
		if kind < 2 && g.M() == 0 {
			kind = 3
		}
		switch kind {
		case 0:
			if e := g.Edges[a%g.M()]; name(e.U, e.V) {
				d.Set = append(d.Set, graph.Edge{U: e.U, V: e.V, W: w})
			}
		case 1:
			if e := g.Edges[a%g.M()]; name(e.U, e.V) {
				d.Remove = append(d.Remove, [2]int{e.U, e.V})
			}
		case 2:
			if len(removed) > 0 {
				if e := removed[a%len(removed)]; name(e.U, e.V) {
					d.Set = append(d.Set, graph.Edge{U: e.U, V: e.V, W: w})
				}
			}
		default:
			if u, v := a%g.N, b%g.N; name(u, v) {
				d.Set = append(d.Set, graph.Edge{U: u, V: v, W: w})
			}
		}
	}
	return d
}

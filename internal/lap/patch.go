package lap

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// Script is the edit applied by Patch, in terms of the post-delta graph
// g: Reweighted and Added index into g.Edges; Removed lists edges of the
// pre-delta graph that no longer exist (they have no index in g).
type Script struct {
	Reweighted []int
	Added      []int
	Removed    []graph.Edge
}

// Size returns the number of edge edits the script carries.
func (s Script) Size() int { return len(s.Reweighted) + len(s.Added) + len(s.Removed) }

// Touched lists both endpoints of every edit, repeats included: the
// columns of the Laplacian that Patch changes. g is the post-delta graph
// the Reweighted and Added indices refer to. The result is never nil.
func (s Script) Touched(g *graph.Graph) []int {
	out := make([]int, 0, 2*s.Size())
	for _, i := range s.Reweighted {
		out = append(out, g.Edges[i].U, g.Edges[i].V)
	}
	for _, i := range s.Added {
		out = append(out, g.Edges[i].U, g.Edges[i].V)
	}
	for _, e := range s.Removed {
		out = append(out, e.U, e.V)
	}
	return out
}

// Patch derives the regularized Laplacian of g by editing base — the
// Laplacian of the pre-delta graph under the same shift — instead of
// reassembling from triplets. Cost is O(k log deg) for k edits plus one
// O(nnz) merge pass only when an added edge needs a new pattern slot.
//
// Removed edges leave stored zeros behind (the pattern only grows);
// zeroDelta reports the net change in stored-zero off-diagonal slots so
// the caller can trigger compaction (CSC.DropZeros) when they pile up.
// Added edges reuse a stored-zero slot when one exists.
//
// Off-diagonal entries are single writes of -w, so they match a cold
// Laplacian(g, shift) bit for bit. Touched diagonals are recomputed from
// g's adjacency in edge order; cold assembly sums the same terms but in
// the (unstable-sort) order Triplet.ToCSC leaves them, so a patched
// diagonal can differ from cold by rounding — one or two ULPs, far below
// anything the solver stack observes. An error means base does not match
// the script (a slot that must exist is missing); callers fall back to
// cold assembly.
func Patch(base *sparse.CSC, g *graph.Graph, shift []float64, sc Script) (patched *sparse.CSC, zeroDelta int, err error) {
	if base.Rows != g.N || base.Cols != g.N {
		return nil, 0, fmt.Errorf("lap: patch base is %dx%d, graph has n=%d", base.Rows, base.Cols, g.N)
	}

	// Pattern growth first: added edges whose off-diagonal slots are not
	// in the base pattern force one merge rebuild; edges that land on a
	// stored-zero slot (a previously removed edge) reuse it in place.
	var grow []sparse.Entry
	for _, idx := range sc.Added {
		e := g.Edges[idx]
		if base.FindEntry(e.U, e.V) < 0 {
			grow = append(grow, sparse.Entry{I: e.U, J: e.V, V: 0}, sparse.Entry{I: e.V, J: e.U, V: 0})
		}
	}
	var out *sparse.CSC
	if len(grow) > 0 {
		out = base.InsertEntries(grow)
	} else {
		out = base.CloneValues()
	}

	set := func(i, j int, v float64) error {
		k := out.FindEntry(i, j)
		if k < 0 {
			return fmt.Errorf("lap: patch expects entry (%d,%d) in base pattern", i, j)
		}
		out.Val[k] = v
		return nil
	}
	for _, idx := range sc.Reweighted {
		e := g.Edges[idx]
		if err := set(e.U, e.V, -e.W); err != nil {
			return nil, 0, err
		}
		if err := set(e.V, e.U, -e.W); err != nil {
			return nil, 0, err
		}
	}
	// Removals before additions: a resurrected edge (removed and re-added
	// in one script) must end at its new weight, not at the removal's 0.
	for _, e := range sc.Removed {
		if err := set(e.U, e.V, 0); err != nil {
			return nil, 0, err
		}
		if err := set(e.V, e.U, 0); err != nil {
			return nil, 0, err
		}
		zeroDelta += 2
	}
	for _, idx := range sc.Added {
		e := g.Edges[idx]
		if base.FindEntry(e.U, e.V) >= 0 {
			zeroDelta -= 2 // reusing a dead slot brings it back to life
		}
		if err := set(e.U, e.V, -e.W); err != nil {
			return nil, 0, err
		}
		if err := set(e.V, e.U, -e.W); err != nil {
			return nil, 0, err
		}
	}

	// Recompute every touched diagonal from scratch in adjacency order.
	// Adjacency lists incident edges in global edge order — the same
	// order triplet assembly sums them — so the result is bit-identical
	// to cold assembly (0 + w₁ ≡ w₁ exactly).
	touched := make(map[int]struct{}, 2*sc.Size())
	mark := func(u, v int) {
		touched[u] = struct{}{}
		touched[v] = struct{}{}
	}
	for _, idx := range sc.Reweighted {
		mark(g.Edges[idx].U, g.Edges[idx].V)
	}
	for _, idx := range sc.Added {
		mark(g.Edges[idx].U, g.Edges[idx].V)
	}
	for _, e := range sc.Removed {
		mark(e.U, e.V)
	}
	for v := range touched {
		d := 0.0
		for p := g.AdjStart[v]; p < g.AdjStart[v+1]; p++ {
			d += g.Edges[g.AdjEdge[p]].W
		}
		if shift != nil && shift[v] != 0 {
			d += shift[v]
		}
		if err := set(v, v, d); err != nil {
			return nil, 0, err
		}
	}
	return out, zeroDelta, nil
}

package graph

import (
	"fmt"
	"sort"
)

// Delta is an edge-level modification of a graph over a fixed vertex set:
// Set adds new edges or replaces the weight of existing ones, Remove
// deletes edges. It is the input of the incremental rebuild path — a
// serving workload whose graph drifts a few edges at a time applies a
// Delta instead of resubmitting the whole graph, so untouched clusters'
// sparsifiers and factors can be reused.
type Delta struct {
	// Set lists edges to add (when absent) or reweight (when present).
	// Endpoints are normalized like New's input; weights must pass
	// ValidWeight (positive and finite).
	Set []Edge
	// Remove lists edges to delete, as endpoint pairs. Removing an edge
	// that is not present is an error (it usually means the caller's view
	// of the base graph has drifted).
	Remove [][2]int
}

// Empty reports whether the delta modifies nothing.
func (d Delta) Empty() bool { return len(d.Set) == 0 && len(d.Remove) == 0 }

// Size returns the number of edge modifications the delta carries.
func (d Delta) Size() int { return len(d.Set) + len(d.Remove) }

// Apply builds the graph that results from applying d to g. The vertex
// set is unchanged; the result must still be validated for connectivity
// by the caller (removals can disconnect it). Set semantics are
// add-or-replace: setting an existing edge overwrites its weight rather
// than summing (the natural "the conductance changed" update).
func (d Delta) Apply(g *Graph) (*Graph, error) {
	p, err := d.ApplyPatch(g)
	if err != nil {
		return nil, err
	}
	return p.G, nil
}

// Patch is the outcome of Delta.ApplyPatch: the post-delta graph plus
// the classified edit script against the base edge list, in terms the
// Laplacian patcher consumes directly.
type Patch struct {
	// G is the post-delta graph. For a reweight-only delta it shares the
	// base graph's adjacency arrays (same edge order, same indices); only
	// the edge list is copied. Graphs are immutable by convention, so the
	// sharing is safe.
	G *Graph

	// Reweighted lists indices into G.Edges whose weight changed.
	Reweighted []int
	// Added lists indices into G.Edges of appended edges (always a
	// suffix of the edge list). Removed lists the dropped base edges
	// with their old weights — they have no index in G.
	Added   []int
	Removed []Edge

	// OldToNew maps base edge indices to indices in G.Edges (-1 for
	// removed edges); surviving edges keep their relative order. Nil for
	// non-structural patches, where indices are unchanged.
	OldToNew []int

	// Touched lists every vertex incident to a modified edge, deduplicated.
	Touched []int
}

// Structural reports whether the patch changed the edge set (additions
// or removals) rather than only edge weights. Non-structural patches
// preserve edge indices, which downstream consumers exploit for
// index-aligned state adoption.
func (p *Patch) Structural() bool { return len(p.Added) > 0 || len(p.Removed) > 0 }

// ApplyPatch is Apply returning the classified edit script alongside the
// result. For deltas that don't change the edge set it skips the full
// graph rebuild entirely: the base adjacency is shared and only the edge
// list is copied, making a k-edge reweight O(k·deg) instead of O(m).
// Structural deltas rebuild the adjacency once via FromNormalized —
// still without the validation/merge pass of New, which the base graph
// already guarantees.
func (d Delta) ApplyPatch(g *Graph) (*Patch, error) {
	if g == nil {
		return nil, fmt.Errorf("graph: delta applied to nil graph")
	}
	type key = [2]int
	norm := func(u, v int) (key, error) {
		if u < 0 || u >= g.N || v < 0 || v >= g.N {
			return key{}, fmt.Errorf("graph: delta endpoint (%d,%d) out of range for n=%d", u, v, g.N)
		}
		if u == v {
			return key{}, fmt.Errorf("graph: delta self loop at vertex %d", u)
		}
		if u > v {
			u, v = v, u
		}
		return key{u, v}, nil
	}
	p := &Patch{}
	touched := make(map[int]struct{}, 2*d.Size())
	touch := func(u, v int) {
		touched[u] = struct{}{}
		touched[v] = struct{}{}
	}

	// Removals first: Apply's semantics are remove-then-set regardless of
	// field order, so a Set of a removed pair is an addition (resurrect).
	edges := append([]Edge(nil), g.Edges...)
	var dropped []bool
	for _, r := range d.Remove {
		k, err := norm(r[0], r[1])
		if err != nil {
			return nil, err
		}
		e, ok := g.EdgeBetween(k[0], k[1])
		if !ok {
			return nil, fmt.Errorf("graph: delta removes absent edge (%d,%d)", r[0], r[1])
		}
		if dropped == nil {
			dropped = make([]bool, len(edges))
		}
		if dropped[e] {
			return nil, fmt.Errorf("graph: delta removes edge (%d,%d) twice", r[0], r[1])
		}
		dropped[e] = true
		p.Removed = append(p.Removed, g.Edges[e])
		touch(k[0], k[1])
	}

	at := make(map[key]int, len(d.Set))
	reseen := make(map[int]struct{}, len(d.Set))
	var added []Edge
	for _, e := range d.Set {
		k, err := norm(e.U, e.V)
		if err != nil {
			return nil, err
		}
		if !ValidWeight(e.W) {
			return nil, fmt.Errorf("graph: delta sets edge (%d,%d) to invalid weight %g", e.U, e.V, e.W)
		}
		if idx, ok := g.EdgeBetween(k[0], k[1]); ok && (dropped == nil || !dropped[idx]) {
			if edges[idx].W == e.W {
				continue // no-op reweight: keep the dirty set tight
			}
			edges[idx].W = e.W
			if _, dup := reseen[idx]; !dup {
				reseen[idx] = struct{}{}
				p.Reweighted = append(p.Reweighted, idx)
			}
			continue
		}
		if prev, ok := at[k]; ok {
			added[prev].W = e.W // later Set of the same new edge wins
			continue
		}
		at[k] = len(added)
		added = append(added, Edge{U: k[0], V: k[1], W: e.W})
		touch(k[0], k[1])
	}

	// A reweight counts only if the final weight differs from the base:
	// setting an edge and then setting it back is no edit, and leaving it
	// out keeps the dirty set tight.
	kept := p.Reweighted[:0]
	for _, idx := range p.Reweighted {
		if ed := g.Edges[idx]; edges[idx].W != ed.W {
			kept = append(kept, idx)
			touch(ed.U, ed.V)
		}
	}
	p.Reweighted = kept

	p.Touched = make([]int, 0, len(touched))
	for v := range touched {
		p.Touched = append(p.Touched, v)
	}
	sort.Ints(p.Touched)

	if len(p.Removed) == 0 && len(added) == 0 {
		// Reweight-only: edge order (hence indices and adjacency) is
		// unchanged — share the base adjacency arrays.
		p.G = &Graph{
			N:         g.N,
			Edges:     edges,
			AdjStart:  g.AdjStart,
			AdjTarget: g.AdjTarget,
			AdjEdge:   g.AdjEdge,
		}
		return p, nil
	}

	out := make([]Edge, 0, len(edges)-len(p.Removed)+len(added))
	p.OldToNew = make([]int, len(edges))
	for i, e := range edges {
		if dropped != nil && dropped[i] {
			p.OldToNew[i] = -1
			continue
		}
		p.OldToNew[i] = len(out)
		out = append(out, e)
	}
	// Reweighted indices refer to the base list; remap into the new one.
	for i, idx := range p.Reweighted {
		p.Reweighted[i] = p.OldToNew[idx]
	}
	p.Added = make([]int, len(added))
	for i := range added {
		p.Added[i] = len(out) + i
	}
	out = append(out, added...)
	// Surviving base edges are normalized and deduplicated; added edges
	// were checked against both the base and each other — FromNormalized's
	// contract holds, so the O(m log m) validation/merge of New is skipped.
	p.G = FromNormalized(g.N, out)
	return p, nil
}

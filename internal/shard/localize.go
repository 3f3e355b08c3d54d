package shard

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/dsu"
	"repro/internal/graph"
	"repro/internal/sparsify"
)

// Localize carries a base build's state into a delta rebuild so Run
// can restrict work to the dirty neighborhood: clusters holding a
// touched vertex are dirty, clean-clean cut edges adopt the base build's
// stitch decision verbatim, and only cut edges incident to dirty
// clusters are re-decided, with the recovery round confined to the dirty
// region (sparsify.RecoverOffSubgraphRegion). Without it every cluster
// is dirty and the stitch decides every cut edge.
type Localize struct {
	// DirtyVertices lists every vertex incident to a delta-modified edge
	// (graph.Patch.Touched). A cluster containing one is dirty; all
	// others are clean and their base state is adopted.
	DirtyVertices []int
	// BaseSub reports whether the undirected edge (u, v) was in the base
	// sparsifier — the stitch decision to adopt on clean-clean cut
	// edges. Must be non-nil; membership by endpoints keeps the contract
	// valid across cluster-id shifts (a structural delta can split dirty
	// clusters, renumbering everything after them).
	BaseSub func(u, v int) bool

	// IndexAligned, set by the caller only for non-structural
	// (reweight-only) deltas, promises that BaseEdgeIdx holds valid
	// indices into the NEW graph identifying the base sparsifier's
	// edges (the core path resolves the base edges by endpoints once,
	// so the promise is robust to edge-order differences between the
	// graph the base was built from and the patched graph) and that
	// BaseKeys (the base ClusterKeys, aligned with cluster ids, which a
	// non-structural delta provably preserves) are current. Then clean
	// clusters adopt their sparsifier edges by index — no fingerprint
	// hashing, no cache lookup, no per-edge EdgeBetween resolution in
	// the worker loop.
	IndexAligned bool
	BaseEdgeIdx  []int
	BaseKeys     []string
}

// dirtyClusters maps DirtyVertices through the plan's assignment.
func (loc *Localize) dirtyClusters(plan *Plan) []bool {
	dirty := make([]bool, plan.K)
	for _, v := range loc.DirtyVertices {
		if v >= 0 && v < len(plan.Assign) {
			dirty[plan.Assign[v]] = true
		}
	}
	return dirty
}

// sortCutByWeight orders cut-edge indices by descending weight with the
// index tie-break — the same preference MEWST applies inside a cluster.
func sortCutByWeight(g *graph.Graph, cut []int) {
	slices.SortFunc(cut, func(a, b int) int {
		// Negative exactly when W[a] > W[b], or the weights are equal
		// and a < b; cmp.Compare would order NaN weights differently.
		if wa, wb := g.Edges[a].W, g.Edges[b].W; wa != wb {
			if wa > wb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
}

// stitch decides the cut edges against the dirty cluster set:
//
//  1. clean-clean cut edges (neither endpoint cluster dirty) adopt the
//     base build's decision verbatim — the delta cannot have touched
//     them, so the base forest/recovery choice is still the right one;
//  2. cut edges incident to a dirty cluster are re-decided from
//     scratch: max-weight forest sweep over just those edges, then a
//     recovery round over the ones the forest skipped;
//  3. a repair sweep over all cut edges restores connectivity in the
//     rare case the delta removed a seam the base forest depended on
//     (DSU component count tells us exactly when).
//
// loc == nil means no base decisions: every cluster is dirty, step 1
// adopts nothing, the forest sweep covers the whole sorted cut, step 3
// cannot fire (every skipped cut edge is already spanned by the forest),
// and the recovery round scores against the whole stitched subgraph of
// g — not the relabelled region copy, whose elimination order differs.
//
// With base decisions the clean-region result is bit-compatible with
// the base build by construction: membership of every clean-clean cut
// edge equals the base sparsifier's — except for the `repaired` edges
// the connectivity sweep admits, which the caller must treat as an
// escape from the dirty region (a pencil patch restricted to
// dirty-incident edges would miss them).
func stitch(ctx context.Context, g *graph.Graph, plan *Plan, inSub []bool, dirty []bool, loc *Localize, o sparsify.Options) (retained, recovered, adopted, repaired int, err error) {
	// Two union-find structures with different jobs. forest is a
	// vertex-level forest built from cut edges only — deliberately denser
	// than a forest over the cluster quotient: a long seam keeps roughly
	// one crossing per boundary component (the crossing density a global
	// spanning tree would have had) instead of a single bridge carrying
	// the whole seam's current. conn additionally pre-unions each
	// cluster's vertices (every cluster sparsifier is internally
	// connected) and is consulted only for the whole-graph connectivity
	// repair below.
	forest := dsu.New(g.N)
	conn := dsu.New(g.N)
	for ci := range plan.Clusters {
		vs := plan.Clusters[ci].Vertices
		for i := 1; i < len(vs); i++ {
			conn.Union(vs[0], vs[i])
		}
	}

	dirtyCut := make([]int, 0, 64)
	for _, e := range plan.CutEdges {
		ed := g.Edges[e]
		if dirty[plan.Assign[ed.U]] || dirty[plan.Assign[ed.V]] {
			dirtyCut = append(dirtyCut, e)
			continue
		}
		if loc.BaseSub(ed.U, ed.V) {
			inSub[e] = true
			forest.Union(ed.U, ed.V)
			conn.Union(ed.U, ed.V)
			adopted++
		}
	}

	// Fresh forest sweep over the dirty cut only, against the adopted
	// clean structure.
	sortCutByWeight(g, dirtyCut)
	remaining := make([]int, 0, len(dirtyCut))
	for _, e := range dirtyCut {
		ed := g.Edges[e]
		if forest.Union(ed.U, ed.V) {
			inSub[e] = true
			conn.Union(ed.U, ed.V)
			retained++
		} else {
			remaining = append(remaining, e)
		}
	}

	// Connectivity repair: the adopted clean structure plus the fresh
	// dirty forest can leave the cluster quotient disconnected when the
	// delta removed an edge the base stitch leaned on and the replacement
	// seam is clean-clean (so neither sweep above considered it). The
	// input graph is connected (checked upstream), so a weight-ordered
	// sweep over all cut edges closes every gap. This is the one case
	// where a clean-clean cut edge can enter without base membership —
	// connectivity outranks bit-compatibility.
	if conn.Count() > 1 {
		all := append([]int(nil), plan.CutEdges...)
		sortCutByWeight(g, all)
		for _, e := range all {
			ed := g.Edges[e]
			if conn.Union(ed.U, ed.V) && !inSub[e] {
				inSub[e] = true
				retained++
				repaired++
			}
		}
	}

	// Recovery round over the remaining dirty cut edges. The quota keeps
	// the stitched size comparable to a monolithic build: the per-cluster
	// runs spent ≈ α·n on their vertices, so the dirty boundary gets the
	// same α fraction of its own pool (the clean boundary received its
	// share at base-build time), and at least one edge per dirty cluster
	// so thin cuts still get reinforced. When the pool fits the quota,
	// every edge is admitted without scoring — factorizing the stitched
	// subgraph to rank a pool that fits would be the most expensive no-op
	// in the pipeline (grid-like graphs land here: the forest already
	// retained almost every seam edge).
	alpha := o.Alpha
	if alpha <= 0 {
		alpha = 0.10
	}
	quota := int(alpha * float64(len(dirtyCut)))
	dirtyCount := 0
	for _, isDirty := range dirty {
		if isDirty {
			dirtyCount++
		}
	}
	if quota < dirtyCount {
		quota = dirtyCount
	}
	if quota < 1 {
		quota = 1
	}
	if len(remaining) <= quota {
		for _, e := range remaining {
			inSub[e] = true
		}
		recovered = len(remaining)
		return retained, recovered, adopted, repaired, nil
	}
	if loc == nil {
		recovered, err = sparsify.RecoverOffSubgraph(ctx, g, inSub, remaining, quota, o)
		return retained, recovered, adopted, repaired, err
	}

	// Region = dirty clusters' vertices plus the clean endpoints of
	// dirty cut edges, so every candidate has both endpoints inside.
	inRegion := make([]bool, g.N)
	var region []int
	for ci, isDirty := range dirty {
		if !isDirty {
			continue
		}
		for _, v := range plan.Clusters[ci].Vertices {
			inRegion[v] = true
			region = append(region, v)
		}
	}
	for _, e := range dirtyCut {
		for _, v := range [2]int{g.Edges[e].U, g.Edges[e].V} {
			if !inRegion[v] {
				inRegion[v] = true
				region = append(region, v)
			}
		}
	}
	recovered, err = sparsify.RecoverOffSubgraphRegion(ctx, g, inSub, region, remaining, quota, o)
	return retained, recovered, adopted, repaired, err
}

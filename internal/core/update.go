package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/precond"
	"repro/internal/shard"
	"repro/internal/sparse"
	"repro/internal/sparsify"
)

// BaseGraph reconstructs the handle's input graph G from the assembled
// pencil. The pencil deliberately does not retain the edge list (a cache
// of handles should not pin every input graph), but L_G determines it
// exactly: every off-diagonal entry is −w of one edge, and the shift
// lives only on the diagonal — so the reconstruction is lossless,
// including weights, at O(nnz) cost and no extra resident memory.
func (s *Sparsifier) BaseGraph() *graph.Graph {
	lg := s.pen.LG
	edges := make([]graph.Edge, 0, (lg.NNZ()-lg.Cols)/2)
	for j := 0; j < lg.Cols; j++ {
		for q := lg.ColPtr[j]; q < lg.ColPtr[j+1]; q++ {
			i := lg.RowIdx[q]
			if i < j && lg.Val[q] < 0 {
				edges = append(edges, graph.Edge{U: i, V: j, W: -lg.Val[q]})
			}
		}
	}
	// Emitted column-major with i < j: normalized, deduplicated, valid by
	// construction of the Laplacian.
	return graph.FromNormalized(lg.Cols, edges)
}

// UpdateStats describes how much of an Update the streaming-delta fast
// path served: whether the stitch ran localized to the dirty region and
// which pencil sides were patched in place instead of reassembled from
// triplets. Retrieve it from the updated handle via
// Sparsifier.UpdateStats (nil on cold-built handles).
type UpdateStats struct {
	// Localized reports the stitch was restricted to cut edges incident
	// to dirty clusters, adopting the base build's decisions elsewhere.
	Localized bool
	// LGPatched / LPPatched report the regularized Laplacians were
	// derived by in-place CSC patching (lap.Patch) of the base pencil
	// rather than full triplet assembly.
	LGPatched bool
	LPPatched bool
	// PatchTime is the time spent deriving the patched pencil matrices
	// (script construction plus in-place edits); AssembleTime is the
	// time spent on whichever sides fell back to cold assembly.
	PatchTime    time.Duration
	AssembleTime time.Duration
	// StoredZeros counts dead off-diagonal slots the patched matrices
	// carry (edge removals leave stored zeros behind until compaction);
	// Compacted reports DropZeros ran during this update.
	StoredZeros int
	Compacted   bool
	// RefactorRows counts the rows of the factor this update recomputed
	// under the base handle's ordering; the others were copied.
	// Reordered reports that the factor's fill passed the reorder bound,
	// so L_P was ordered and factorized afresh.
	RefactorRows int
	Reordered    bool
}

// Update builds a new handle for the graph that results from applying
// delta d to this handle's input graph, reusing as much of this handle's
// work as the delta allows. The receiver is unchanged (handles stay
// immutable); the returned handle carries the same configuration.
//
// For a handle built through the sharded pipeline the rebuild is
// incremental AND localized: the retained plan assignment maps the delta
// onto dirty clusters, clean clusters' sparsifier edges are adopted
// verbatim (ShardStats.ClustersReused reports how many), the stitch
// re-decides only cut edges incident to dirty clusters
// (ShardStats.StitchLocalized), the pencil's Laplacians are patched in
// place instead of reassembled, and the monolithic factor is refactored
// under the base ordering along the elimination-tree ancestors of the
// changed columns only (UpdateStats). Handles built without the sharded
// pipeline fall back to a full rebuild — still a correct Update, with
// nothing reused.
func (s *Sparsifier) Update(ctx context.Context, d graph.Delta) (*Sparsifier, error) {
	p, err := d.ApplyPatch(s.BaseGraph())
	if err != nil {
		return nil, fmt.Errorf("core: applying delta: %w", err)
	}
	return UpdateSparsifierPatch(ctx, s, p)
}

// UpdateSparsifierPatch builds a handle for the patched graph p.G
// incrementally against base — the one delta path. The patch's
// touched-vertex set marks dirty clusters: clean clusters adopt the base
// sparsifier's edges, the stitch re-decides only cut edges incident to
// dirty clusters, and when it stays inside the dirty region the pencil's
// Laplacians are derived by in-place CSC patching at O(dirty) cost
// instead of two O(n + m) triplet assemblies. A patch whose Touched
// lists every vertex rebuilds every cluster (still reusing the base
// edges of those whose fingerprint did not change). Any precondition
// failure degrades to cold assembly or a full rebuild — the result is
// always a correct handle for p.G.
func UpdateSparsifierPatch(ctx context.Context, base *Sparsifier, p *graph.Patch) (*Sparsifier, error) {
	if p == nil || p.G == nil {
		return nil, fmt.Errorf("core: update from nil patch")
	}
	if base == nil {
		return nil, fmt.Errorf("core: update of nil handle")
	}
	cfg := base.cfg
	newG := p.G
	st := base.ShardStats()
	if st == nil || st.Abandoned || st.Assign == nil || newG.N != base.n {
		// Nothing reusable (monolithic, prebuilt, abandoned plan, or a
		// changed vertex set): a full rebuild is the correct Update.
		return NewSparsifier(ctx, newG, cfg)
	}
	if cfg.MaxVertices > 0 && newG.N > cfg.MaxVertices {
		return nil, fmt.Errorf("%w: graph has %d vertices, limit is %d", ErrTooLarge, newG.N, cfg.MaxVertices)
	}
	// A reweight-only patch cannot change connectivity (ApplyPatch
	// validates positive weights), so the O(n + m) BFS check is skipped —
	// part of keeping the ≤1%-delta cost O(dirty).
	if p.Structural() && !newG.Connected() {
		return nil, fmt.Errorf("%w: updated graph with %d vertices and %d edges has %d components",
			ErrDisconnected, newG.N, newG.M(), componentCount(newG))
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapCanceled(fmt.Errorf("core: updating sparsifier: %w", err))
	}

	start := time.Now()
	var baseEdges []int
	for _, sb := range st.PerShard {
		baseEdges = append(baseEdges, sb.Edges)
	}
	res, err := shard.Sparsify(ctx, newG, shard.Options{
		Shards:           cfg.Shards,
		Threshold:        cfg.ShardThreshold,
		BaseAssign:       st.Assign,
		BaseClusterEdges: baseEdges,
		Sparsify:         cfg.Sparsify,
		Cache:            cfg.Clusters,
		Localize: &shard.Localize{
			DirtyVertices: p.Touched,
			BaseSub:       base.sub,
			BaseKeys:      st.ClusterKeys,
		},
	})
	if err != nil {
		return nil, wrapCanceled(err)
	}
	out := &Sparsifier{cfg: cfg, n: newG.N, res: res, sub: res.Sparsifier}
	pen, upd, lgZeros, lpZeros, err := updatedPencil(base, p, res)
	if err != nil {
		return nil, err
	}
	upd.RefactorRows = pen.PreStats.RefactorRows
	upd.Reordered = pen.PreStats.Reordered
	out.pen = pen
	out.upd = upd
	out.lgZeros, out.lpZeros = lgZeros, lpZeros
	out.buildTime = time.Since(start)
	return out, nil
}

// storedZeroCompactionDiv triggers DropZeros compaction of a patched
// Laplacian once stored-zero slots exceed nnz divided by this: removals
// leave dead slots behind, and letting them pile up past ~12% taxes every
// subsequent matvec.
const storedZeroCompactionDiv = 8

// updatedPencil produces the new handle's pencil. When the localized
// stitch proved the delta stayed inside the dirty region, both Laplacians
// are derived by in-place CSC patching of the base pencil under the base
// shift — O(dirty) instead of O(n + m) — with per-side fallback to cold
// assembly on any script mismatch. Otherwise both are assembled cold.
//
// Either way the factor is refactored under the base factor's ordering
// (precond.NewRefactor), told the L_P columns the patch script touched,
// or every column once L_P was assembled cold or compacted.
//
// The patched pencil keeps the BASE shift: lap.Shift is a global constant
// (rel × mean weighted degree), so a delta nudges it everywhere and
// re-deriving it would force a full-diagonal rewrite. The drift is
// bounded by the delta's share of total weight and resets to exact on
// the next cold rebuild or replan.
func updatedPencil(base *Sparsifier, p *graph.Patch, res *sparsify.Result) (*Pencil, *UpdateStats, int, int, error) {
	newG := p.G
	baseFactor := base.pen.Factor()
	st := res.Shards
	upd := &UpdateStats{Localized: st != nil && st.StitchLocalized}
	patchable := base.pen != nil &&
		st != nil && st.Incremental && st.StitchLocalized && !st.Abandoned &&
		st.CutRepaired == 0 && res.Reweight == nil
	if !patchable {
		t := time.Now()
		pen, err := newPencilWith(newG, res.Sparsifier, res.Shift, precond.NewRefactor(baseFactor, nil))
		if err != nil {
			return nil, nil, 0, 0, err
		}
		upd.AssembleTime = time.Since(t)
		return pen, upd, 0, 0, nil
	}

	shift := base.pen.Shift
	lgZeros, lpZeros := base.lgZeros, base.lpZeros

	t := time.Now()
	lg, dz, err := lap.Patch(base.pen.LG, newG, shift, lap.Script{
		Reweighted: p.Reweighted, Added: p.Added, Removed: p.Removed,
	})
	if err == nil {
		upd.LGPatched = true
		lgZeros += dz
	} else {
		// The base matrix does not match the script (should be
		// unreachable); cold assembly is always correct.
		a := time.Now()
		lg = lap.Laplacian(newG, shift)
		upd.AssembleTime += time.Since(a)
		lgZeros = 0
	}

	newSub := res.Sparsifier
	sc, ok := subPatchScript(base.sub, newSub, st.Assign, st.Dirty)
	var lp *sparse.CSC
	if ok {
		lp, dz, err = lap.Patch(base.pen.LP, newSub, shift, sc)
	}
	var changed []int // L_P columns the script touched; nil: every column
	if ok && err == nil {
		upd.LPPatched = true
		lpZeros += dz
		changed = sc.Touched(newSub)
	} else {
		a := time.Now()
		lp = lap.Laplacian(newSub, shift)
		upd.AssembleTime += time.Since(a)
		lpZeros = 0
	}

	if lgZeros*storedZeroCompactionDiv > lg.NNZ() {
		lg = lg.DropZeros()
		lgZeros = 0
		upd.Compacted = true
	}
	if lpZeros*storedZeroCompactionDiv > lp.NNZ() {
		lp = lp.DropZeros()
		lpZeros = 0
		upd.Compacted = true
		changed = nil // dropped slots change the pattern anywhere
	}
	upd.PatchTime = time.Since(t) - upd.AssembleTime
	upd.StoredZeros = lgZeros + lpZeros

	pen, err := newPencilFromLaplacians(newG.N, shift, lg, lp, precond.NewRefactor(baseFactor, changed))
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return pen, upd, lgZeros, lpZeros, nil
}

// subPatchScript diffs the base sparsifier subgraph against the new one,
// restricted to edges incident to dirty clusters (the rebuild's
// ShardStats.Dirty mask) — the only place a localized rebuild with zero
// repairs can differ, since clean clusters keep their ids and adopt
// their base edges. Map keys are normalized (U < V) endpoint pairs;
// indices in the returned script refer to newSub.Edges as lap.Patch
// requires. Returns ok=false when the dirty restriction cannot be
// trusted (missing assignment or mask), sending the caller to cold
// assembly.
func subPatchScript(baseSub, newSub *graph.Graph, assign []int, dirty []bool) (lap.Script, bool) {
	if baseSub == nil || len(assign) != newSub.N || dirty == nil {
		return lap.Script{}, false
	}
	incident := func(e graph.Edge) bool {
		return dirty[assign[e.U]] || dirty[assign[e.V]]
	}
	old := make(map[[2]int]float64)
	for _, e := range baseSub.Edges {
		if incident(e) {
			old[[2]int{e.U, e.V}] = e.W
		}
	}
	var sc lap.Script
	for i, e := range newSub.Edges {
		if !incident(e) {
			continue
		}
		w, was := old[[2]int{e.U, e.V}]
		switch {
		case !was:
			sc.Added = append(sc.Added, i)
		case w != e.W:
			sc.Reweighted = append(sc.Reweighted, i)
		}
		delete(old, [2]int{e.U, e.V})
	}
	for k, w := range old {
		sc.Removed = append(sc.Removed, graph.Edge{U: k[0], V: k[1], W: w})
	}
	return sc, true
}

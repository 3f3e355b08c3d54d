package shard

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/sparsify"
)

// DefaultRebalanceFactor is the retained plan's balance-guard ceiling when
// Options.RebalanceFactor is unset: a retained cluster holding more than
// this multiple of its fair edge share (M/K) forces a fresh plan.
const DefaultRebalanceFactor = 4.0

// PlanFromAssign rebuilds a Plan for g from a retained per-vertex cluster
// assignment — the plan-reuse replacement for the recursive
// bisection. Clusters that a delta disconnected are split into their
// components (exactly the repair a fresh plan gets), so every returned
// cluster is connected; on an assignment whose clusters are all still
// connected the rebuild is the identity and cluster ids — and therefore
// per-cluster seeds and fingerprints — are preserved.
func PlanFromAssign(g *graph.Graph, assign []int) (*Plan, error) {
	if g == nil || g.N < 1 {
		return nil, fmt.Errorf("shard: nil or empty graph")
	}
	if len(assign) != g.N {
		return nil, fmt.Errorf("shard: assignment covers %d vertices, graph has %d", len(assign), g.N)
	}
	maxID := -1
	for v, id := range assign {
		if id < 0 {
			return nil, fmt.Errorf("shard: vertex %d has negative cluster id %d", v, id)
		}
		if id > maxID {
			maxID = id
		}
	}
	start := time.Now()
	p := &Plan{Planned: maxID + 1, Assign: append([]int(nil), assign...)}
	// repair=false: the retained assignment already went through fragment
	// repair at plan time; re-merging under this plan's (different)
	// Planned-derived threshold could absorb a still-connected, unchanged
	// cluster and shift every later cluster's id, seed, and fingerprint —
	// silently collapsing reuse. Fragments a delta genuinely disconnects
	// simply become their own (possibly tiny) clusters instead.
	if err := p.componentize(g, false); err != nil {
		return nil, err
	}
	p.PlanTime = time.Since(start)
	return p, nil
}

// PlanFromAssignReweight is the lazy counterpart of PlanFromAssign for
// reweight-only deltas: edge weights cannot change connectivity, so the
// per-cluster component re-check is provably the identity and is
// skipped, and local subgraphs are extracted only for clusters holding
// a dirty vertex — clean clusters carry just their vertex list and edge
// count (Cluster.LocalEdges), which is everything the index-adoption
// path reads. This turns the per-update plan cost from O(n + m) graph
// extraction into one counting pass.
//
// The caller owns the reweight-only guarantee (shard has no delta to
// check it against); a structural delta must go through PlanFromAssign.
func PlanFromAssignReweight(g *graph.Graph, assign, dirtyVertices []int) (*Plan, error) {
	if g == nil || g.N < 1 {
		return nil, fmt.Errorf("shard: nil or empty graph")
	}
	if len(assign) != g.N {
		return nil, fmt.Errorf("shard: assignment covers %d vertices, graph has %d", len(assign), g.N)
	}
	maxID := -1
	for v, id := range assign {
		if id < 0 {
			return nil, fmt.Errorf("shard: vertex %d has negative cluster id %d", v, id)
		}
		if id > maxID {
			maxID = id
		}
	}
	start := time.Now()
	p := &Plan{K: maxID + 1, Planned: maxID + 1, Assign: append([]int(nil), assign...)}
	vertsOf := make([][]int, p.K)
	for v, id := range p.Assign {
		vertsOf[id] = append(vertsOf[id], v)
	}
	counts := make([]int, p.K)
	for e := range g.Edges {
		ed := &g.Edges[e]
		if cu := p.Assign[ed.U]; cu == p.Assign[ed.V] {
			counts[cu]++
		} else {
			p.CutEdges = append(p.CutEdges, e)
		}
	}
	dirty := make([]bool, p.K)
	for _, v := range dirtyVertices {
		if v >= 0 && v < len(p.Assign) {
			dirty[p.Assign[v]] = true
		}
	}
	pl := newPlanner(g, Options{}, p, 1)
	p.Clusters = make([]Cluster, p.K)
	for i, verts := range vertsOf {
		c := Cluster{Vertices: verts, EdgeCount: counts[i]}
		if dirty[i] {
			c.Local, c.GlobalEdge = pl.induced(verts)
		}
		p.Clusters[i] = c
	}
	p.PlanTime = time.Since(start)
	return p, nil
}

// retainedPlan rebuilds the plan from opts.BaseAssign and decides, once,
// whether clean clusters adopt their base sparsifier edges by index. That
// takes a reweight-only delta whose base edges resolve in g
// (Localize.IndexAligned), base keys aligned with the plan, and a method
// whose cluster results are adoptable (not ER). Then the plan is the lazy
// PlanFromAssignReweight — clean clusters' local subgraphs are never
// read — and carries each clean cluster's adoption list for Run.
// Otherwise it is the full PlanFromAssign, and every cluster goes
// through fingerprinting and the cache.
func retainedPlan(g *graph.Graph, opts Options) (*Plan, error) {
	loc := opts.Localize
	if loc == nil || loc.BaseSub == nil || !loc.IndexAligned ||
		len(loc.BaseEdgeIdx) == 0 || opts.Sparsify.Method == sparsify.ER {
		return PlanFromAssign(g, opts.BaseAssign)
	}
	for _, ei := range loc.BaseEdgeIdx {
		if ei < 0 || ei >= g.M() {
			return PlanFromAssign(g, opts.BaseAssign)
		}
	}
	p, err := PlanFromAssignReweight(g, opts.BaseAssign, loc.DirtyVertices)
	if err != nil {
		return nil, err
	}
	if len(loc.BaseKeys) != p.K {
		// Key misalignment: adoption cannot engage, and the lazy plan's
		// unmaterialized clean clusters would be read. Rebuild fully.
		return PlanFromAssign(g, opts.BaseAssign)
	}
	dirty := loc.dirtyClusters(p)
	p.adopt = make([][]int, p.K)
	for _, ei := range loc.BaseEdgeIdx {
		ed := g.Edges[ei]
		if cu := p.Assign[ed.U]; cu == p.Assign[ed.V] && !dirty[cu] {
			p.adopt[cu] = append(p.adopt[cu], ei)
		}
	}
	p.baseKeys = loc.BaseKeys
	return p, nil
}

// outgrown is the rebalance guard on a retained plan: true when a delta
// grew any cluster past RebalanceFactor × (M/K) local edges, or past that
// multiple of its own base-build size (BaseClusterEdges).
func outgrown(g *graph.Graph, plan *Plan, opts Options) bool {
	rf := opts.RebalanceFactor
	if rf == 0 {
		rf = DefaultRebalanceFactor
	}
	if rf <= 0 || plan.K <= 1 {
		return false
	}
	fair := float64(g.M()) / float64(plan.K)
	for ci := range plan.Clusters {
		m := float64(plan.Clusters[ci].LocalEdges())
		if m > rf*fair {
			return true
		}
		// The fair-share bound alone cannot trip when K ≤ rf (no cluster
		// can hold more than K× the average), so also compare against
		// the cluster's own base-build size when the caller provided it;
		// the tiny floor keeps noise on near-empty clusters from forcing
		// replans.
		if ci < len(opts.BaseClusterEdges) && opts.BaseClusterEdges[ci] > tinyClusterEdges &&
			m > rf*float64(opts.BaseClusterEdges[ci]) {
			return true
		}
	}
	return false
}

package shard

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
)

// DefaultRebalanceFactor is the retained plan's balance-guard ceiling: a
// delta that grows any retained cluster past this multiple of its fair
// edge share (M/K), or of its own base-build size, forces a fresh plan.
const DefaultRebalanceFactor = 4.0

// PlanFromAssign rebuilds a Plan for g from a retained per-vertex cluster
// assignment — the plan-reuse replacement for the recursive bisection.
// dirtyVertices lists the vertices a delta touched: a cluster holding one
// is dirty, and nil marks every cluster dirty. A clean cluster's induced
// subgraph cannot have changed, so only dirty clusters are materialized
// (Local, GlobalEdge) and re-checked for connectivity; clean clusters
// carry their vertex list and edge count (Cluster.LocalEdges). The
// dirty-cluster mask is computed here, once, as Plan.Dirty.
//
// Cluster ids are stable. A dirty cluster that the delta disconnected
// keeps its id for the component holding its lowest vertex; its other
// components get new ids from K up, in cluster then vertex order, and are
// dirty too. No clean cluster's id — and so its seed and fingerprint —
// moves, and on an assignment whose clusters are all still connected the
// rebuild is the identity.
func PlanFromAssign(g *graph.Graph, assign, dirtyVertices []int) (*Plan, error) {
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
		maxID = max(maxID, id)
	}
	start := time.Now()
	k := maxID + 1
	p := &Plan{Planned: k, Assign: slices.Clone(assign), Dirty: make([]bool, k)}
	for _, v := range dirtyVertices {
		if v >= 0 && v < g.N {
			p.Dirty[assign[v]] = true
		}
	}
	if dirtyVertices == nil {
		for ci := range p.Dirty {
			p.Dirty[ci] = true
		}
	}
	vertsOf := make([][]int, k)
	for v, id := range assign {
		vertsOf[id] = append(vertsOf[id], v)
	}

	pl := newPlanner(g, Options{}, p, 1)
	p.Clusters = make([]Cluster, k)
	var split [][]int // components past the first of disconnected clusters
	for ci, verts := range vertsOf {
		if !p.Dirty[ci] {
			p.Clusters[ci] = Cluster{Vertices: verts}
			continue
		}
		local, globalEdge := pl.induced(verts)
		parts := componentsOf(verts, local.Components())
		if len(parts) > 1 {
			verts = parts[0]
			local, globalEdge = pl.induced(verts)
			split = append(split, parts[1:]...)
		}
		p.Clusters[ci] = Cluster{Vertices: verts, Local: local, GlobalEdge: globalEdge}
	}
	for _, verts := range split {
		id := len(p.Clusters)
		for _, v := range verts {
			p.Assign[v] = id
		}
		local, globalEdge := pl.induced(verts)
		p.Clusters = append(p.Clusters, Cluster{Vertices: verts, Local: local, GlobalEdge: globalEdge})
		p.Dirty = append(p.Dirty, true)
	}
	p.K = len(p.Clusters)

	counts := make([]int, p.K)
	for e := range g.Edges {
		ed := &g.Edges[e]
		if cu := p.Assign[ed.U]; cu == p.Assign[ed.V] {
			counts[cu]++
		} else {
			p.CutEdges = append(p.CutEdges, e)
		}
	}
	for ci := range p.Clusters {
		if !p.Dirty[ci] {
			p.Clusters[ci].EdgeCount = counts[ci]
		}
	}
	p.PlanTime = time.Since(start)
	return p, nil
}

// componentsOf groups verts by their component label (comp[i] labels
// verts[i]); labels are numbered in order of their lowest local vertex,
// so the group holding verts[0] comes first.
func componentsOf(verts, comp []int) [][]int {
	n := 0
	for _, c := range comp {
		n = max(n, c+1)
	}
	parts := make([][]int, n)
	for i, c := range comp {
		parts[c] = append(parts[c], verts[i])
	}
	return parts
}

// outgrown is the rebalance guard on a retained plan: true when a delta
// grew any cluster past DefaultRebalanceFactor × (M/K) local edges, or
// past that multiple of its own base-build size (BaseClusterEdges).
func outgrown(g *graph.Graph, plan *Plan, opts Options) bool {
	const rf = DefaultRebalanceFactor
	if plan.K <= 1 {
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

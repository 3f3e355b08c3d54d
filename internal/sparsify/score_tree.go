package sparsify

import (
	"context"

	"repro/internal/graph"
	"repro/internal/tree"
)

// scoreTreePhase computes the truncated trace reduction (eq. 15) of every
// candidate off-tree edge with respect to the spanning tree. Effective
// resistances come from one offline-LCA pass; per-edge voltages are
// propagated by β-layer BFS over the tree using eqs. (13)–(14), which is
// exact because the unit p→q current flows only along the unique tree path.
// The BFS walks the tree's own adjacency (a subAdj in g's order).
func scoreTreePhase(ctx context.Context, g *graph.Graph, st *tree.Tree, cand []int, o Options) ([]float64, error) {
	pairs := make([][2]int, len(cand))
	for i, e := range cand {
		pairs[i] = [2]int{g.Edges[e].U, g.Edges[e].V}
	}
	lcas := st.LCAs(pairs)
	var treeAdj subAdj
	treeAdj.build(g, st.InTree)

	scores := make([]float64, len(cand))
	scratches := make([]*treeScratch, o.Workers)
	for w := range scratches {
		scratches[w] = newTreeScratch(g.N, g.M())
	}
	err := parallelFor(ctx, len(cand), o.Workers, func(worker, i int) {
		sc := scratches[worker]
		e := cand[i]
		ed := g.Edges[e]
		l := lcas[i]
		r := st.Resistance(ed.U, ed.V, l)
		sum := sc.truncatedSum(g, st, &treeAdj, ed.U, ed.V, l, o.Beta)
		scores[i] = ed.W * sum / (1 + ed.W*r)
	})
	if err != nil {
		return nil, err
	}
	return scores, nil
}

// treeScratch is per-worker reusable state for tree-phase scoring.
type treeScratch struct {
	cur                    int32
	stampP, stampQ         []int32
	vP, vQ                 []float64
	pathStampP, pathStampQ []int32
	pathNextP, pathNextQ   []int32
	pathResP, pathResQ     []float64
	edgeStamp              []int32
	nodesP                 []int32
	frontier, next         []int32
	pbuf, qbuf             []int32
}

func newTreeScratch(n, m int) *treeScratch {
	return &treeScratch{
		stampP: make([]int32, n), stampQ: make([]int32, n),
		vP: make([]float64, n), vQ: make([]float64, n),
		pathStampP: make([]int32, n), pathStampQ: make([]int32, n),
		pathNextP: make([]int32, n), pathNextQ: make([]int32, n),
		pathResP: make([]float64, n), pathResQ: make([]float64, n),
		edgeStamp: make([]int32, m),
	}
}

// truncatedSum evaluates the Σ w_ij (v(i) − v(j))² part of eq. (15) for one
// off-tree edge (p, q) with LCA l.
func (sc *treeScratch) truncatedSum(g *graph.Graph, st *tree.Tree, treeAdj *subAdj, p, q, l, beta int) float64 {
	sc.cur++
	cur := sc.cur

	// Collect the tree paths p→l and q→l.
	sc.pbuf = sc.pbuf[:0]
	for v := p; v != l; v = st.Parent[v] {
		sc.pbuf = append(sc.pbuf, int32(v))
	}
	sc.pbuf = append(sc.pbuf, int32(l))
	sc.qbuf = sc.qbuf[:0]
	for v := q; v != l; v = st.Parent[v] {
		sc.qbuf = append(sc.qbuf, int32(v))
	}
	sc.qbuf = append(sc.qbuf, int32(l))
	dp, dq := len(sc.pbuf)-1, len(sc.qbuf)-1
	pathLen := dp + dq // edges on the p→q path

	r := st.Resistance(p, q, l)

	// Record the first β path steps leaving p (toward q) and leaving q
	// (toward p); the BFS voltage rule consults these.
	record := func(aSide []int32, bSide []int32, da, db int,
		pathStamp, pathNext []int32, pathRes []float64) {
		steps := beta
		if steps > pathLen {
			steps = pathLen
		}
		for t := 0; t < steps; t++ {
			var node, nxt int32
			var edge int
			if t < da {
				node = aSide[t]
				nxt = aSide[t+1]
				edge = st.ParentEdge[node]
			} else {
				j := t - da
				node = bSide[db-j]
				nxt = bSide[db-j-1]
				edge = st.ParentEdge[nxt]
			}
			pathStamp[node] = cur
			pathNext[node] = nxt
			pathRes[node] = 1 / g.Edges[edge].W
		}
	}
	record(sc.pbuf, sc.qbuf, dp, dq, sc.pathStampP, sc.pathNextP, sc.pathResP)
	record(sc.qbuf, sc.pbuf, dq, dp, sc.pathStampQ, sc.pathNextQ, sc.pathResQ)

	// β-layer BFS from p with decreasing voltages (eq. 13): v(p) = R_T(p,q).
	sc.nodesP = sc.nodesP[:0]
	sc.bfsVoltages(treeAdj, p, beta, r, -1, sc.stampP, sc.vP, sc.pathStampP, sc.pathNextP, sc.pathResP, &sc.nodesP)
	// β-layer BFS from q with increasing voltages (eq. 14): v(q) = 0.
	sc.bfsVoltages(treeAdj, q, beta, 0, +1, sc.stampQ, sc.vQ, sc.pathStampQ, sc.pathNextQ, sc.pathResQ, nil)

	// Σ over graph edges between the two neighborhoods.
	var sum float64
	for _, i32 := range sc.nodesP {
		i := int(i32)
		vi := sc.vP[i]
		for ap := g.AdjStart[i]; ap < g.AdjStart[i+1]; ap++ {
			j := g.AdjTarget[ap]
			if sc.stampQ[j] != cur {
				continue
			}
			e := g.AdjEdge[ap]
			if sc.edgeStamp[e] == cur {
				continue
			}
			sc.edgeStamp[e] = cur
			d := vi - sc.vQ[j]
			sum += g.Edges[e].W * d * d
		}
	}
	return sum
}

// bfsVoltages explores the tree from src for at most beta layers, assigning
// voltages: crossing a recorded path edge adds sign·(edge resistance),
// any other tree edge copies the predecessor's voltage.
func (sc *treeScratch) bfsVoltages(treeAdj *subAdj, src, beta int,
	v0 float64, sign float64, stamp []int32, volt []float64,
	pathStamp, pathNext []int32, pathRes []float64, nodes *[]int32) {

	cur := sc.cur
	stamp[src] = cur
	volt[src] = v0
	if nodes != nil {
		*nodes = append(*nodes, int32(src))
	}
	sc.frontier = append(sc.frontier[:0], int32(src))
	for layer := 0; layer < beta && len(sc.frontier) > 0; layer++ {
		sc.next = sc.next[:0]
		for _, u := range sc.frontier {
			vu := volt[u]
			onPath := pathStamp[u] == cur
			for _, i := range treeAdj.neighbors(int(u)) {
				if stamp[i] == cur {
					continue
				}
				stamp[i] = cur
				if onPath && pathNext[u] == i {
					volt[i] = vu + sign*pathRes[u]
				} else {
					volt[i] = vu
				}
				if nodes != nil {
					*nodes = append(*nodes, i)
				}
				sc.next = append(sc.next, i)
			}
		}
		sc.frontier, sc.next = sc.next, sc.frontier
	}
}

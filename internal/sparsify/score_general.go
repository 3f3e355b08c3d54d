package sparsify

import (
	"context"

	"repro/internal/chol"
	"repro/internal/graph"
	"repro/internal/spai"
)

// scoreGeneralPhase computes the approximate truncated trace reduction
// (eq. 20) of every candidate off-subgraph edge with respect to a general
// subgraph S, using the sparse approximate inverse Z̃ ≈ L⁻¹ of S's Cholesky
// factor: e_ijᵀ L_S⁻¹ e_pq ≈ (z̃_i − z̃_j)ᵀ (z̃_p − z̃_q) and
// R_S(p,q) ≈ ‖z̃_p − z̃_q‖². It is one round of a fresh genPool.
func scoreGeneralPhase(ctx context.Context, g *graph.Graph, inSub []bool, f *chol.Factor, z *spai.ApproxInv,
	cand []int, o Options) ([]float64, error) {

	var p genPool
	return p.score(ctx, g, inSub, f, z, cand, o)
}

// genPool is the general-phase scoring state one Algorithm 2 run reuses
// across rounds 2..N_r on the same graph: the subgraph adjacency buffers
// and one scratch per worker, allocated in the first round.
type genPool struct {
	sub     subAdj
	scratch []*genScratch
}

// score is scoreGeneralPhase on the pool's buffers. Each candidate's
// score depends only on its own edge, so the result is independent of
// o.Workers and of what earlier rounds left in the scratch.
func (p *genPool) score(ctx context.Context, g *graph.Graph, inSub []bool, f *chol.Factor, z *spai.ApproxInv,
	cand []int, o Options) ([]float64, error) {

	p.sub.build(g, inSub)
	for len(p.scratch) < o.Workers {
		p.scratch = append(p.scratch, newGenScratch(g.N, g.M()))
	}
	scores := make([]float64, len(cand))
	err := parallelFor(ctx, len(cand), o.Workers, func(worker, i int) {
		ed := g.Edges[cand[i]]
		scores[i] = p.scratch[worker].score(g, &p.sub, f, z, ed.U, ed.V, ed.W, o.Beta)
	})
	if err != nil {
		return nil, err
	}
	return scores, nil
}

// genScratch is per-worker reusable state for general-phase scoring.
type genScratch struct {
	cur            int32
	stampP, stampQ []int32
	edgeStamp      []int32
	acc            []float64
	touched        []int32
	nodesP         []int32
	frontier, next []int32
}

func newGenScratch(n, m int) *genScratch {
	return &genScratch{
		stampP:    make([]int32, n),
		stampQ:    make([]int32, n),
		edgeStamp: make([]int32, m),
		acc:       make([]float64, n),
	}
}

func (sc *genScratch) score(g *graph.Graph, sub *subAdj, f *chol.Factor, z *spai.ApproxInv,
	p, q int, w float64, beta int) float64 {

	sc.cur++
	// Scatter z̃_p − z̃_q (permuted indices) into the dense accumulator.
	pp, qp := f.PermutedIndex(p), f.PermutedIndex(q)
	sc.touched = z.ScatterDiff(pp, qp, sc.acc, sc.touched[:0])
	r := spai.NormSq(sc.acc, sc.touched)

	// β-layer BFS in the current subgraph from both endpoints.
	sc.nodesP = sc.nodesP[:0]
	sc.bfs(sub, p, beta, sc.stampP, &sc.nodesP)
	sc.bfs(sub, q, beta, sc.stampQ, nil)

	// Σ over graph edges between the two neighborhoods (eq. 20).
	var sum float64
	for _, i32 := range sc.nodesP {
		i := int(i32)
		ip := f.PermutedIndex(i)
		for ap := g.AdjStart[i]; ap < g.AdjStart[i+1]; ap++ {
			j := g.AdjTarget[ap]
			if sc.stampQ[j] != sc.cur {
				continue
			}
			e := g.AdjEdge[ap]
			if sc.edgeStamp[e] == sc.cur {
				continue
			}
			sc.edgeStamp[e] = sc.cur
			d := z.DotDiff(ip, f.PermutedIndex(j), sc.acc)
			sum += g.Edges[e].W * d * d
		}
	}
	spai.ClearScatter(sc.acc, sc.touched)
	return w * sum / (1 + w*r)
}

// bfs explores the subgraph from src for at most beta layers, stamping
// visited vertices and optionally collecting them in visit order.
func (sc *genScratch) bfs(sub *subAdj, src, beta int, stamp []int32, nodes *[]int32) {
	cur := sc.cur
	stamp[src] = cur
	if nodes != nil {
		*nodes = append(*nodes, int32(src))
	}
	sc.frontier = append(sc.frontier[:0], int32(src))
	for layer := 0; layer < beta && len(sc.frontier) > 0; layer++ {
		sc.next = sc.next[:0]
		for _, u := range sc.frontier {
			for _, v := range sub.neighbors(int(u)) {
				if stamp[v] == cur {
					continue
				}
				stamp[v] = cur
				if nodes != nil {
					*nodes = append(*nodes, v)
				}
				sc.next = append(sc.next, v)
			}
		}
		sc.frontier, sc.next = sc.next, sc.frontier
	}
}

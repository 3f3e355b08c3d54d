package sparsify

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chol"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/spai"
)

// filteredBFS is the β-layer subgraph BFS as it was written before the
// subgraph CSR: it scans all of g's adjacency and skips edges outside the
// subgraph. Kept as the oracle for the node order genScratch.bfs and
// treeScratch.bfsVoltages must reproduce.
func filteredBFS(g *graph.Graph, inSub []bool, src, beta int) []int32 {
	stamp := make([]bool, g.N)
	stamp[src] = true
	nodes := []int32{int32(src)}
	frontier := []int32{int32(src)}
	for layer := 0; layer < beta && len(frontier) > 0; layer++ {
		var next []int32
		for _, u32 := range frontier {
			u := int(u32)
			for ap := g.AdjStart[u]; ap < g.AdjStart[u+1]; ap++ {
				if !inSub[g.AdjEdge[ap]] {
					continue
				}
				v := g.AdjTarget[ap]
				if stamp[v] {
					continue
				}
				stamp[v] = true
				nodes = append(nodes, int32(v))
				next = append(next, int32(v))
			}
		}
		frontier = next
	}
	return nodes
}

// TestSubAdjBFSMatchesFilteredBFS: on random subgraphs of random graphs,
// the CSR BFS visits the same vertices in the same order as the filtered
// scan, from every source and at several depths, with one scratch reused
// across subgraphs the way a genPool reuses it across rounds.
func TestSubAdjBFSMatchesFilteredBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sub subAdj
	for trial := 0; trial < 20; trial++ {
		g := gen.RandomConnected(40+rng.Intn(60), 30+rng.Intn(150), int64(trial))
		sc := newGenScratch(g.N, g.M())
		// The tree phase's voltage BFS walks the spanning tree's CSR.
		st := mustTree(t, g)
		sub.build(g, st.InTree)
		tsc := newTreeScratch(g.N, g.M())
		for src := 0; src < g.N; src++ {
			tsc.cur++
			tsc.nodesP = tsc.nodesP[:0]
			tsc.bfsVoltages(&sub, src, 4, 0, 1, tsc.stampP, tsc.vP, tsc.pathStampP, tsc.pathNextP, tsc.pathResP, &tsc.nodesP)
			if want := filteredBFS(g, st.InTree, src, 4); !slices.Equal(tsc.nodesP, want) {
				t.Fatalf("trial %d src %d: tree CSR BFS %v, filtered %v", trial, src, tsc.nodesP, want)
			}
		}

		keep := rng.Float64()
		for round := 0; round < 3; round++ {
			inSub := make([]bool, g.M())
			for e := range inSub {
				inSub[e] = rng.Float64() < keep
			}
			sub.build(g, inSub)
			for src := 0; src < g.N; src++ {
				for _, beta := range []int{1, 2, 5} {
					sc.cur++
					sc.nodesP = sc.nodesP[:0]
					sc.bfs(&sub, src, beta, sc.stampP, &sc.nodesP)
					want := filteredBFS(g, inSub, src, beta)
					if !slices.Equal(sc.nodesP, want) {
						t.Fatalf("trial %d round %d src %d β=%d: CSR BFS %v, filtered %v",
							trial, round, src, beta, sc.nodesP, want)
					}
				}
			}
		}
	}
}

// TestGenPoolReuseMatchesFresh: a pool that already scored an earlier
// round's subgraph scores the next one exactly as fresh scratch does.
func TestGenPoolReuseMatchesFresh(t *testing.T) {
	g := gen.Tri2D(24, 24, 3)
	st := mustTree(t, g)
	o := Options{Workers: 3}.withDefaults()
	shift := lap.Shift(g, o.ShiftRel)
	var pool genPool
	inSub := append([]bool(nil), st.InTree...)
	for round := 0; round < 3; round++ {
		f, err := chol.New(lap.Laplacian(subgraphView(g, inSub), shift), chol.Options{})
		if err != nil {
			t.Fatal(err)
		}
		z := spai.Compute(f.L, o.Delta)
		cand := offSubgraphEdges(g, inSub)
		got := mustScore(pool.score(context.Background(), g, inSub, f, z, cand, o))
		want := mustScore(scoreGeneralPhase(context.Background(), g, inSub, f, z, cand, o))
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: pooled scores differ from fresh scores", round)
		}
		for k, e := range cand {
			if k%4 == round {
				inSub[e] = true
			}
		}
	}
}

package gen

import (
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// BarabasiAlbert generates a scale-free graph by preferential attachment:
// each new vertex attaches m edges to existing vertices with probability
// proportional to their degree. The paper claims validation on "various
// kinds of graphs"; heavy-tailed degree distributions stress the
// sparsifier differently from meshes (hubs make spanning trees star-like).
func BarabasiAlbert(n, m int, seed int64) *graph.Graph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	// Repeated-endpoint list: sampling uniformly from it is sampling
	// proportional to degree.
	targets := make([]int, 0, 2*n*m)
	// Seed clique of m+1 vertices.
	for i := 0; i <= m && i < n; i++ {
		for j := 0; j < i; j++ {
			edges = append(edges, graph.Edge{U: j, V: i, W: 0.5 + rng.Float64()})
			targets = append(targets, i, j)
		}
	}
	// Distinct targets in draw order, so the weights drawn next (and the
	// graph) are a pure function of the seed.
	chosen := make([]int, 0, m)
	for v := m + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			u := targets[rng.Intn(len(targets))]
			if u != v && !slices.Contains(chosen, u) {
				chosen = append(chosen, u)
			}
		}
		for _, u := range chosen {
			edges = append(edges, graph.Edge{U: u, V: v, W: 0.5 + rng.Float64()})
			targets = append(targets, u, v)
		}
	}
	return graph.MustNew(n, edges)
}

// WattsStrogatz generates a small-world graph: a ring lattice where each
// vertex connects to its k nearest neighbors, with each edge rewired to a
// random endpoint with probability p. Long-range rewired edges are exactly
// the spectrally critical edges sparsifiers must find.
func WattsStrogatz(n, k int, p float64, seed int64) *graph.Graph {
	if k < 2 {
		k = 2
	}
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		for d := 1; d <= k/2; d++ {
			u := (v + d) % n
			if rng.Float64() < p {
				// Rewire to a uniform random endpoint (avoid self loops).
				for tries := 0; tries < 8; tries++ {
					cand := rng.Intn(n)
					if cand != v {
						u = cand
						break
					}
				}
			}
			if u != v {
				edges = append(edges, graph.Edge{U: v, V: u, W: 0.5 + rng.Float64()})
			}
		}
	}
	// The base ring keeps the graph connected even under heavy rewiring.
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{U: v, V: (v + 1) % n, W: 0.25})
	}
	return graph.MustNew(n, edges)
}

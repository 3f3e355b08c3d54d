package shard

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// The oracles are argsort and sortCutByWeight as of commit 34e4a71
// (sort.Slice), copied verbatim apart from their names; the
// slices.SortFunc versions must reproduce them exactly, NaN included.

func oracleArgsort(vals []float64) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if vals[idx[a]] != vals[idx[b]] {
			return vals[idx[a]] < vals[idx[b]]
		}
		return idx[a] < idx[b] // deterministic tie-break
	})
	return idx
}

func oracleSortCutByWeight(g *graph.Graph, cut []int) {
	sort.Slice(cut, func(a, b int) bool {
		if g.Edges[cut[a]].W != g.Edges[cut[b]].W {
			return g.Edges[cut[a]].W > g.Edges[cut[b]].W
		}
		return cut[a] < cut[b]
	})
}

// tiedValues draws m values from a small pool, so ties are common, with
// NaN, ±Inf and signed zeros mixed in.
func tiedValues(m int, rng *rand.Rand) []float64 {
	pool := []float64{0, math.Copysign(0, -1), 1, 2.5, -3, math.Inf(1), math.Inf(-1), math.NaN()}
	v := make([]float64, m)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = rng.NormFloat64()
		} else {
			v[i] = pool[rng.Intn(len(pool))]
		}
	}
	return v
}

func TestArgsortMatchesOracle(t *testing.T) {
	for _, m := range []int{0, 1, 2, 12, 13, 40, 300, 5000} {
		for seed := int64(0); seed < 3; seed++ {
			vals := tiedValues(m, rand.New(rand.NewSource(seed)))
			if got, want := argsort(vals), oracleArgsort(vals); !slices.Equal(got, want) {
				t.Fatalf("m=%d seed=%d: order differs from the oracle", m, seed)
			}
		}
	}
}

func TestSortCutByWeightMatchesOracle(t *testing.T) {
	for _, m := range []int{0, 1, 2, 12, 13, 40, 300, 5000} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := &graph.Graph{N: 2}
			for _, w := range tiedValues(2*m, rng) {
				g.Edges = append(g.Edges, graph.Edge{U: 0, V: 1, W: w})
			}
			cut := rng.Perm(2 * m)[:m]
			want := append([]int(nil), cut...)
			oracleSortCutByWeight(g, want)
			sortCutByWeight(g, cut)
			if !slices.Equal(cut, want) {
				t.Fatalf("m=%d seed=%d: order differs from the oracle", m, seed)
			}
		}
	}
}

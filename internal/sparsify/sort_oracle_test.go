package sparsify

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleByScore is selectEdges' candidate sort as of commit 34e4a71
// (sort.Slice), which byScore must reproduce exactly.
func oracleByScore(cand []int, scores []float64) []int {
	order := make([]int, len(cand))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] > scores[order[b]]
		}
		return cand[order[a]] < cand[order[b]]
	})
	return order
}

func TestByScoreMatchesOracle(t *testing.T) {
	pool := []float64{0, math.Copysign(0, -1), 1, 2.5, -3, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, m := range []int{0, 1, 2, 12, 13, 40, 300, 5000} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cand := rng.Perm(2 * m)[:m]
			scores := make([]float64, m)
			for i := range scores {
				if rng.Intn(3) == 0 {
					scores[i] = rng.NormFloat64()
				} else {
					scores[i] = pool[rng.Intn(len(pool))]
				}
			}
			if got, want := byScore(cand, scores), oracleByScore(cand, scores); !slices.Equal(got, want) {
				t.Fatalf("m=%d seed=%d: order differs from the oracle", m, seed)
			}
		}
	}
}

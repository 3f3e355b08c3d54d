package tree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleByDescendingKey is fromKey's edge sort as of commit 34e4a71
// (sort.Slice), which byDescendingKey must reproduce exactly.
func oracleByDescendingKey(key []float64) []int {
	idx := make([]int, len(key))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if key[idx[a]] != key[idx[b]] {
			return key[idx[a]] > key[idx[b]]
		}
		return idx[a] < idx[b] // deterministic tie-break
	})
	return idx
}

// tiedKeys draws m keys from a small pool, so ties are common, with NaN,
// ±Inf and signed zeros mixed in.
func tiedKeys(m int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	pool := []float64{0, math.Copysign(0, -1), 1, 2.5, -3, math.Inf(1), math.Inf(-1), math.NaN()}
	key := make([]float64, m)
	for i := range key {
		if rng.Intn(3) == 0 {
			key[i] = rng.NormFloat64()
		} else {
			key[i] = pool[rng.Intn(len(pool))]
		}
	}
	return key
}

func TestByDescendingKeyMatchesOracle(t *testing.T) {
	for _, m := range []int{0, 1, 2, 12, 13, 40, 300, 5000} {
		for seed := int64(0); seed < 3; seed++ {
			key := tiedKeys(m, seed)
			if got, want := byDescendingKey(key), oracleByDescendingKey(key); !slices.Equal(got, want) {
				t.Fatalf("m=%d seed=%d: order differs from the oracle", m, seed)
			}
		}
	}
}

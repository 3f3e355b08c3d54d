package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracleMergeSorted is mergeSorted as of commit 34e4a71, copied verbatim
// apart from its name: the sort.Slice version the slices.SortFunc one must
// reproduce bit for bit, duplicate weights summed in the same order.
func oracleMergeSorted(norm []Edge) []Edge {
	sort.Slice(norm, func(a, b int) bool {
		if norm[a].U != norm[b].U {
			return norm[a].U < norm[b].U
		}
		return norm[a].V < norm[b].V
	})
	merged := norm[:0]
	for _, e := range norm {
		if k := len(merged); k > 0 && merged[k-1].U == e.U && merged[k-1].V == e.V {
			merged[k-1].W += e.W
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

func TestMergeSortedMatchesOracle(t *testing.T) {
	for _, m := range []int{0, 1, 2, 12, 13, 40, 300, 5000} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + int(math.Sqrt(float64(m)))
			norm := make([]Edge, m)
			for i := range norm {
				u := rng.Intn(n - 1)
				v := u + 1 + rng.Intn(n-1-u)
				norm[i] = Edge{U: u, V: v, W: 0.1 + rng.Float64()}
			}
			want := oracleMergeSorted(append([]Edge(nil), norm...))
			got := mergeSorted(norm)
			if len(got) != len(want) {
				t.Fatalf("m=%d seed=%d: %d edges, oracle %d", m, seed, len(got), len(want))
			}
			for i := range want {
				if got[i].U != want[i].U || got[i].V != want[i].V || math.Float64bits(got[i].W) != math.Float64bits(want[i].W) {
					t.Fatalf("m=%d seed=%d: edge %d is %+v, oracle %+v", m, seed, i, got[i], want[i])
				}
			}
		}
	}
}

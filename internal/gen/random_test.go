package gen

import (
	"slices"
	"sort"
	"testing"
)

func TestBarabasiAlbertStructure(t *testing.T) {
	g := BarabasiAlbert(500, 3, 1)
	if g.N != 500 {
		t.Fatalf("N = %d", g.N)
	}
	if !g.Connected() {
		t.Fatal("BA graph disconnected")
	}
	// Preferential attachment must produce a heavy tail: the max degree
	// should far exceed the median.
	degs := make([]int, g.N)
	for v := 0; v < g.N; v++ {
		degs[v] = g.Degree(v)
	}
	sort.Ints(degs)
	median := degs[g.N/2]
	max := degs[g.N-1]
	if max < 4*median {
		t.Errorf("degree tail too light: max %d, median %d", max, median)
	}
}

// TestBarabasiAlbertReproducible: the same seed gives the same edge list,
// weights included.
func TestBarabasiAlbertReproducible(t *testing.T) {
	a, b := BarabasiAlbert(500, 3, 1), BarabasiAlbert(500, 3, 1)
	if !slices.Equal(a.Edges, b.Edges) {
		t.Fatal("BarabasiAlbert(500, 3, 1) gave different edge lists on two calls")
	}
}

func TestWattsStrogatzStructure(t *testing.T) {
	g := WattsStrogatz(400, 6, 0.1, 2)
	if !g.Connected() {
		t.Fatal("WS graph disconnected")
	}
	avg := 2 * float64(g.M()) / float64(g.N)
	// Ring (1) + k/2 lattice edges per vertex → average degree ≈ 2 + k.
	if avg < 5 || avg > 10 {
		t.Errorf("average degree %g outside small-world range", avg)
	}
}

func TestWattsStrogatzNoRewire(t *testing.T) {
	// p = 0: a pure lattice; every edge spans at most k/2 ring positions.
	n, k := 100, 4
	g := WattsStrogatz(n, k, 0, 3)
	for _, e := range g.Edges {
		d := e.U - e.V
		if d < 0 {
			d = -d
		}
		if d > n-d {
			d = n - d // ring distance
		}
		if d > k/2 {
			t.Fatalf("edge (%d,%d) spans %d > k/2 without rewiring", e.U, e.V, d)
		}
	}
}

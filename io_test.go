package trsparse

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// cscFromDense builds a CSC matrix from row-major dense values.
func cscFromDense(t *testing.T, rows, cols int, v []float64) *sparse.CSC {
	t.Helper()
	tr := sparse.NewTriplet(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if x := v[i*cols+j]; x != 0 {
				tr.Add(i, j, x)
			}
		}
	}
	return tr.ToCSC()
}

func edgeWeight(g *Graph, u, v int) (float64, bool) {
	for _, e := range g.Edges {
		if (e.U == u && e.V == v) || (e.U == v && e.V == u) {
			return e.W, true
		}
	}
	return 0, false
}

// TestGraphFromMatrixLaplacianWeights covers the SDD sign convention edge
// by edge: strictly negative off-diagonals a_ij become edges of weight
// −a_ij; the diagonal is ignored.
func TestGraphFromMatrixLaplacianWeights(t *testing.T) {
	// Path graph 0—1—2 with weights 2 and 3, as L = D − A.
	a := cscFromDense(t, 3, 3, []float64{
		2, -2, 0,
		-2, 5, -3,
		0, -3, 3,
	})
	g, err := GraphFromMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d, want n=3 m=2", g.N, g.M())
	}
	if w, ok := edgeWeight(g, 0, 1); !ok || w != 2 {
		t.Fatalf("edge (0,1) weight = %g, %v; want 2", w, ok)
	}
	if w, ok := edgeWeight(g, 1, 2); !ok || w != 3 {
		t.Fatalf("edge (1,2) weight = %g, %v; want 3", w, ok)
	}
}

// TestGraphFromMatrixAdjacencyWeights covers the adjacency convention edge
// by edge: positive off-diagonals become edge weights directly.
func TestGraphFromMatrixAdjacencyWeights(t *testing.T) {
	a := cscFromDense(t, 3, 3, []float64{
		0, 1.5, 0,
		1.5, 0, 2.5,
		0, 2.5, 0,
	})
	g, err := GraphFromMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("m = %d, want 2", g.M())
	}
	if w, _ := edgeWeight(g, 0, 1); w != 1.5 {
		t.Fatalf("edge (0,1) weight = %g, want 1.5", w)
	}
	if w, _ := edgeWeight(g, 1, 2); w != 2.5 {
		t.Fatalf("edge (1,2) weight = %g, want 2.5", w)
	}
}

// TestGraphFromMatrixMixedSigns: off-diagonals of both signs make the
// intended convention ambiguous and must be rejected.
func TestGraphFromMatrixMixedSigns(t *testing.T) {
	a := cscFromDense(t, 3, 3, []float64{
		1, -1, 0,
		-1, 2, 2,
		0, 2, 1,
	})
	if _, err := GraphFromMatrix(a); err == nil {
		t.Fatal("mixed-sign off-diagonals accepted")
	} else if !strings.Contains(err.Error(), "negative") {
		t.Fatalf("uninformative error: %v", err)
	}
}

// TestGraphFromMatrixNonSquare: only square matrices describe graphs.
func TestGraphFromMatrixNonSquare(t *testing.T) {
	a := cscFromDense(t, 2, 3, []float64{
		0, 1, 2,
		1, 0, 0,
	})
	if _, err := GraphFromMatrix(a); err == nil {
		t.Fatal("non-square matrix accepted")
	} else if !strings.Contains(err.Error(), "square") {
		t.Fatalf("uninformative error: %v", err)
	}
}

// TestGraphFromMatrixDiagonalOnly: a matrix with no admissible
// off-diagonals yields an edgeless graph (graph.New accepts it; downstream
// connectivity checks reject it where it matters).
func TestGraphFromMatrixDiagonalOnly(t *testing.T) {
	a := cscFromDense(t, 2, 2, []float64{
		4, 0,
		0, 4,
	})
	g, err := GraphFromMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 2 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want n=2 m=0", g.N, g.M())
	}
}

// TestReadMatrixMarketGraphRoundTrip exercises the full Matrix Market
// bridge on a symmetric SDD input.
func TestReadMatrixMarketGraphRoundTrip(t *testing.T) {
	mm := `%%MatrixMarket matrix coordinate real symmetric
3 3 5
1 1 2.0
2 1 -2.0
2 2 5.0
3 2 -3.0
3 3 3.0
`
	g, err := ReadMatrixMarketGraph(strings.NewReader(mm))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d, want n=3 m=2", g.N, g.M())
	}
	if w, _ := edgeWeight(g, 1, 2); w != 3 {
		t.Fatalf("edge (1,2) weight = %g, want 3", w)
	}
}

// TestWriteReadMatrixMarketGraphRoundTrip is the writer→reader property
// test: random connected graphs with weights spanning 1e-12..1e12 must
// survive WriteMatrixMarketGraph → ReadMatrixMarketGraph bit for bit
// (the writer emits full float64 precision).
func TestWriteReadMatrixMarketGraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(60)
		// Random spanning tree first (the MM reader's malformed-header
		// guard rejects matrices with fewer entries than vertices, so
		// every generated graph keeps m ≥ n−1), then random extras —
		// including deliberate duplicates, which NewGraph merges before
		// the write.
		var edges []Edge
		logSpan := func() float64 {
			// log-uniform in [1e-12, 1e12]
			return math.Pow(10, -12+24*rng.Float64())
		}
		for v := 1; v < n; v++ {
			edges = append(edges, Edge{U: rng.Intn(v), V: v, W: logSpan()})
		}
		for i := 0; i < n/2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, Edge{U: u, V: v, W: logSpan()})
		}
		g, err := NewGraph(n, edges)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		var buf bytes.Buffer
		if err := WriteMatrixMarketGraph(&buf, g); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, err := ReadMatrixMarketGraph(&buf)
		if err != nil {
			t.Fatalf("trial %d: read back: %v", trial, err)
		}
		if got.N != g.N || got.M() != g.M() {
			t.Fatalf("trial %d: round trip n=%d m=%d, want n=%d m=%d",
				trial, got.N, got.M(), g.N, g.M())
		}
		want := make(map[[2]int]float64, g.M())
		for _, e := range g.Edges {
			want[[2]int{e.U, e.V}] = e.W
		}
		for _, e := range got.Edges {
			w, ok := want[[2]int{e.U, e.V}]
			if !ok {
				t.Fatalf("trial %d: edge (%d,%d) not in original", trial, e.U, e.V)
			}
			if w != e.W {
				t.Fatalf("trial %d: edge (%d,%d) weight %v != original %v (exact round trip required)",
					trial, e.U, e.V, e.W, w)
			}
		}
	}
}

// FuzzReadMatrixMarketGraph: the /v2/sparsify Matrix Market reader never
// panics, and whatever it accepts is a graph its edges can connect
// (n ≤ m+1) whose edge list graph.New accepts as is.
func FuzzReadMatrixMarketGraph(f *testing.F) {
	for _, s := range []string{
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n1 1 2\n2 1 -1\n3 2 -1\n2 2 2\n3 3 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.5\n2 1 1.5\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n",
		"%%MatrixMarket matrix coordinate integer skew-symmetric\n2 2 1\n2 1 3\n",
		"%%MatrixMarket matrix coordinate real symmetric\n% comment\n\n3 3 3\n1 1 1\n2 2 1\n3 3 1\n",
		"%%MatrixMarket matrix coordinate real general\n2000000000 2000000000 1\n1 2 1.0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 -1\n2 1 1\n",
		"%%MatrixMarket matrix array real general\n1 1\n1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1e400\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadMatrixMarketGraph(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g.N > g.M()+1 {
			t.Fatalf("accepted n=%d with only %d edges", g.N, g.M())
		}
		if _, err := NewGraph(g.N, g.Edges); err != nil {
			t.Fatalf("accepted edges graph.New rejects: %v", err)
		}
	})
}

package sparse_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lap"
	"repro/internal/shard"
	"repro/internal/sparse"
	"repro/internal/sparsify"
)

// oracleToCSC and oracleInsertEntries are the sort.Slice implementations
// of Triplet.ToCSC and CSC.InsertEntries as of commit 34e4a71, copied
// verbatim apart from their names, receivers and the sparse. qualifier.
// Their replacements must be bit-identical: the same pattern and the same
// value bits, because duplicates are summed in the same order.

func oracleToCSC(t *sparse.Triplet) *sparse.CSC {
	nnz := len(t.I)
	a := &sparse.CSC{
		Rows:   t.Rows,
		Cols:   t.Cols,
		ColPtr: make([]int, t.Cols+1),
	}
	// Counting sort by column, then sort each column segment by row and merge.
	count := make([]int, t.Cols+1)
	for _, j := range t.J {
		count[j+1]++
	}
	for j := 0; j < t.Cols; j++ {
		count[j+1] += count[j]
	}
	rowIdx := make([]int, nnz)
	val := make([]float64, nnz)
	next := append([]int(nil), count[:t.Cols]...)
	for k := 0; k < nnz; k++ {
		j := t.J[k]
		p := next[j]
		next[j]++
		rowIdx[p] = t.I[k]
		val[p] = t.V[k]
	}
	outRow := rowIdx[:0]
	outVal := val[:0]
	type kv struct {
		i int
		v float64
	}
	var buf []kv
	pos := 0
	for j := 0; j < t.Cols; j++ {
		lo, hi := count[j], count[j+1]
		buf = buf[:0]
		for k := lo; k < hi; k++ {
			buf = append(buf, kv{rowIdx[k], val[k]})
		}
		sort.Slice(buf, func(x, y int) bool { return buf[x].i < buf[y].i })
		for k := 0; k < len(buf); {
			i := buf[k].i
			s := buf[k].v
			k++
			for k < len(buf) && buf[k].i == i {
				s += buf[k].v
				k++
			}
			outRow = append(outRow, i)
			outVal = append(outVal, s)
			pos++
		}
		a.ColPtr[j+1] = pos
	}
	a.RowIdx = append([]int(nil), outRow...)
	a.Val = append([]float64(nil), outVal...)
	return a
}

func oracleInsertEntries(a *sparse.CSC, entries []sparse.Entry) *sparse.CSC {
	if len(entries) == 0 {
		return a.CloneValues()
	}
	ins := append([]sparse.Entry(nil), entries...)
	sort.Slice(ins, func(x, y int) bool {
		if ins[x].J != ins[y].J {
			return ins[x].J < ins[y].J
		}
		return ins[x].I < ins[y].I
	})
	out := &sparse.CSC{
		Rows:   a.Rows,
		Cols:   a.Cols,
		ColPtr: make([]int, a.Cols+1),
		RowIdx: make([]int, 0, a.NNZ()+len(ins)),
		Val:    make([]float64, 0, a.NNZ()+len(ins)),
	}
	p := 0 // cursor into ins
	for j := 0; j < a.Cols; j++ {
		k := a.ColPtr[j]
		hi := a.ColPtr[j+1]
		for k < hi || (p < len(ins) && ins[p].J == j) {
			switch {
			case p >= len(ins) || ins[p].J != j || (k < hi && a.RowIdx[k] < ins[p].I):
				out.RowIdx = append(out.RowIdx, a.RowIdx[k])
				out.Val = append(out.Val, a.Val[k])
				k++
			case k < hi && a.RowIdx[k] == ins[p].I:
				// Position exists: overwrite, consume both.
				out.RowIdx = append(out.RowIdx, a.RowIdx[k])
				out.Val = append(out.Val, ins[p].V)
				k++
				p++
			default:
				out.RowIdx = append(out.RowIdx, ins[p].I)
				out.Val = append(out.Val, ins[p].V)
				p++
			}
		}
		out.ColPtr[j+1] = len(out.RowIdx)
	}
	return out
}

// sameBits reports the first difference between two matrices, comparing
// values by their bits.
func sameBits(got, want *sparse.CSC) string {
	switch {
	case got.Rows != want.Rows || got.Cols != want.Cols:
		return "shape"
	case !slices.Equal(got.ColPtr, want.ColPtr):
		return "column pointers"
	case !slices.Equal(got.RowIdx, want.RowIdx):
		return "row indices"
	}
	for k := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			return "value bits"
		}
	}
	return ""
}

// weighted returns g with weights drawn so that sums depend on their
// order in floating point.
func weighted(n int, pairs [][2]int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &graph.Graph{N: n}
	for _, p := range pairs {
		g.Edges = append(g.Edges, graph.Edge{U: p[0], V: p[1], W: 0.1 + rng.Float64()*3})
	}
	return g
}

func pathPairs(n, off int) [][2]int {
	var p [][2]int
	for i := 0; i+1 < n; i++ {
		p = append(p, [2]int{off + i, off + i + 1})
	}
	return p
}

func starPairs(leaves, off int) [][2]int {
	var p [][2]int
	for i := 1; i <= leaves; i++ {
		p = append(p, [2]int{off, off + i})
	}
	return p
}

func gridPairs(nx, ny, off int) [][2]int {
	var p [][2]int
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				p = append(p, [2]int{off + y*nx + x, off + y*nx + x + 1})
			}
			if y+1 < ny {
				p = append(p, [2]int{off + y*nx + x, off + (y+1)*nx + x})
			}
		}
	}
	return p
}

// treeAlphaPairs is a random spanning tree on n vertices plus alpha·n
// random extra edges (duplicates allowed).
func treeAlphaPairs(n int, alpha float64, seed int64, off int) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	var p [][2]int
	for v := 1; v < n; v++ {
		p = append(p, [2]int{off + rng.Intn(v), off + v})
	}
	for k := 0; k < int(alpha*float64(n)); k++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			p = append(p, [2]int{off + u, off + v})
		}
	}
	return p
}

// shardedSparsifier is the sparsifier of a sharded build of the
// build-cold-sized circuit grid (n = 12,544) and the shift its pencil uses.
var shardedSparsifier = sync.OnceValues(func() (*graph.Graph, []float64) {
	g := gen.CircuitGrid(112, 112, 0.08, 1)
	res, err := shard.Sparsify(context.Background(), g, shard.Options{Threshold: 4096, Sparsify: sparsify.Options{Seed: 1}})
	if err != nil {
		panic(err)
	}
	return res.Sparsifier, lap.Shift(g, 0)
})

// laplacianTriplet accumulates the regularized Laplacian of g entry by
// entry, in the order lap.Laplacian adds them.
func laplacianTriplet(g *graph.Graph, shift []float64) *sparse.Triplet {
	t := sparse.NewTriplet(g.N, g.N)
	for _, e := range g.Edges {
		t.Add(e.U, e.V, -e.W)
		t.Add(e.V, e.U, -e.W)
		t.Add(e.U, e.U, e.W)
		t.Add(e.V, e.V, e.W)
	}
	for i, v := range shift {
		if v != 0 {
			t.Add(i, i, v)
		}
	}
	for i := 0; i < g.N; i++ {
		t.Add(i, i, 0)
	}
	return t
}

func oracleGraphs() []struct {
	name  string
	g     *graph.Graph
	shift []float64
} {
	components := append(append(append(pathPairs(20, 0), starPairs(15, 23)...), gridPairs(9, 7, 39)...), treeAlphaPairs(200, 0.2, 4, 102)...)
	sub, shift := shardedSparsifier()
	return []struct {
		name  string
		g     *graph.Graph
		shift []float64
	}{
		{"n=0", &graph.Graph{}, nil},
		{"n=1", &graph.Graph{N: 1}, []float64{1e-6}},
		{"isolated", &graph.Graph{N: 17}, nil},
		{"path", weighted(50, pathPairs(50, 0), 1), nil},
		{"star", weighted(41, starPairs(40, 0), 2), nil},
		{"tree+alpha/0", weighted(300, treeAlphaPairs(300, 0.1, 1, 0), 3), nil},
		{"tree+alpha/1", weighted(1000, treeAlphaPairs(1000, 0.3, 2, 0), 4), nil},
		{"grid", weighted(23*31, gridPairs(23, 31, 0), 5), nil},
		{"components", weighted(302, components, 6), nil},
		{"sharded-circuitgrid", sub, shift},
	}
}

// shuffle permutes the triplet's entries, so columns arrive in an order
// the sort has to work for.
func shuffle(t *sparse.Triplet, seed int64) *sparse.Triplet {
	rng := rand.New(rand.NewSource(seed))
	out := sparse.NewTriplet(t.Rows, t.Cols)
	for _, k := range rng.Perm(t.NNZ()) {
		out.Add(t.I[k], t.J[k], t.V[k])
	}
	return out
}

func TestToCSCMatchesOracle(t *testing.T) {
	for _, fx := range oracleGraphs() {
		tr := laplacianTriplet(fx.g, fx.shift)
		for name, in := range map[string]*sparse.Triplet{"laplacian": tr, "shuffled": shuffle(tr, 7)} {
			t.Run(fx.name+"/"+name, func(t *testing.T) {
				if d := sameBits(in.ToCSC(), oracleToCSC(in)); d != "" {
					t.Fatalf("ToCSC differs from the oracle in its %s", d)
				}
			})
		}
	}
}

func TestInsertEntriesMatchesOracle(t *testing.T) {
	for i, fx := range oracleGraphs() {
		if fx.g.N == 0 {
			continue
		}
		t.Run(fx.name, func(t *testing.T) {
			base := lap.Laplacian(fx.g, fx.shift)
			rng := rand.New(rand.NewSource(int64(i)))
			// New positions, existing ones, and repeats of both: a
			// repeated position keeps whichever entry sorts last.
			var ins []sparse.Entry
			for k := 0; k < 4*fx.g.N+20; k++ {
				e := sparse.Entry{I: rng.Intn(fx.g.N), J: rng.Intn(min(fx.g.N, 8)), V: rng.NormFloat64()}
				ins = append(ins, e)
				if k%3 == 0 {
					e.V = rng.NormFloat64()
					ins = append(ins, e)
				}
			}
			if d := sameBits(base.InsertEntries(ins), oracleInsertEntries(base, ins)); d != "" {
				t.Fatalf("InsertEntries differs from the oracle in its %s", d)
			}
		})
	}
}

// FuzzTripletToCSC decodes a triplet from the fuzz bytes — data[0] and
// data[1] give the shape, each following byte triple one (row, column,
// value) entry — and checks ToCSC against the oracle bit for bit.
func FuzzTripletToCSC(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 0, 7})
	f.Add([]byte{3, 3, 0, 0, 1, 1, 1, 2, 2, 2, 3, 0, 1, 4, 1, 0, 4, 0, 0, 9})
	star := []byte{40, 1}
	for k := byte(0); k < 40; k++ {
		star = append(star, k%7, 0, 3*k+1)
	}
	f.Add(star)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows, cols := int(data[0]), int(data[1])
		tr := sparse.NewTriplet(rows, cols)
		if rows > 0 && cols > 0 {
			for k := 2; k+2 < len(data); k += 3 {
				// (b-128)/37 is rarely exact in binary, so the sum of a
				// column's duplicates depends on their order.
				tr.Add(int(data[k])%rows, int(data[k+1])%cols, (float64(data[k+2])-128)/37)
			}
		}
		if d := sameBits(tr.ToCSC(), oracleToCSC(tr)); d != "" {
			t.Fatalf("ToCSC differs from the oracle in its %s", d)
		}
	})
}

// BenchmarkTripletToCSC assembles the sharded build-cold sparsifier
// Laplacian from its triplets.
func BenchmarkTripletToCSC(b *testing.B) {
	tr := laplacianTriplet(shardedSparsifier())
	b.ReportAllocs()
	for b.Loop() {
		tr.ToCSC()
	}
}

package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The codec benchmarks run on the update-stream workload's graph size: a
// 128×128 circuit grid (33,652 edges, a 1.06 MB sparsify body). Each has
// an encoding/json leg (the decode or Marshal the codec replaced) and a
// wire leg.

var benchSink any

func benchGraph() *graph.Graph { return gen.CircuitGrid(128, 128, 0.08, 1) }

func triples(edges []graph.Edge) [][3]float64 {
	out := make([][3]float64, len(edges))
	for i, e := range edges {
		out[i] = [3]float64{float64(e.U), float64(e.V), e.W}
	}
	return out
}

// BenchmarkDecodeGraph decodes a /v2/sparsify body into []graph.Edge.
func BenchmarkDecodeGraph(b *testing.B) {
	g := benchGraph()
	body, err := json.Marshal(map[string]any{"graph": map[string]any{"n": g.N, "edges": triples(g.Edges)}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var req struct {
				Graph *struct {
					N     int          `json:"n"`
					Edges [][3]float64 `json:"edges"`
				} `json:"graph"`
			}
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
			edges := make([]graph.Edge, len(req.Graph.Edges))
			for i, e := range req.Graph.Edges {
				if e[0] != math.Trunc(e[0]) || e[1] != math.Trunc(e[1]) {
					b.Fatal("non-integer endpoint")
				}
				edges[i] = graph.Edge{U: int(e[0]), V: int(e[1]), W: e[2]}
			}
			benchSink = edges
		}
	})
	b.Run("wire", func(b *testing.B) {
		type graphBody struct {
			N     int
			Edges Edges
		}
		member := func(p *graphBody, d *Decoder, key []byte) error {
			switch {
			case Key(key, "n"):
				return d.Int(&p.N)
			case Key(key, "edges"):
				return d.Edges(&p.Edges, 3)
			}
			return d.Skip()
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var gb *graphBody
			d := NewDecoder(body)
			err := d.Decode(func(key []byte) error {
				if Key(key, "graph") {
					return Pointer(d, &gb, member)
				}
				return d.Skip()
			})
			if err == nil {
				err = gb.Edges.Check("edge")
			}
			if err != nil {
				b.Fatal(err)
			}
			benchSink = gb.Edges.List
		}
	})
}

// BenchmarkEncodeEdges renders an 18,000-edge sparsifier's edge list
// (the first 18,000 edges of the graph: a sparsifier is a subgraph, so
// its weights are drawn from the same values).
func BenchmarkEncodeEdges(b *testing.B) {
	edges := benchGraph().Edges[:18000]
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			out, err := json.Marshal(struct {
				Edges [][3]float64 `json:"sparsifier_edges"`
			}{triples(edges)})
			if err != nil {
				b.Fatal(err)
			}
			benchSink = out
		}
	})
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEncoder()
		defer e.Release()
		for b.Loop() {
			e.Reset()
			e.Raw(`{"sparsifier_edges":`)
			e.Edges(edges)
			e.Raw(`}`)
			if e.Err() != nil {
				b.Fatal(e.Err())
			}
		}
	})
}

// BenchmarkEncodeSolution renders one 16,384-entry solution vector x (the
// 128×128 grid's vertex count).
func BenchmarkEncodeSolution(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 128*128)
	for i := range x {
		x[i] = rng.NormFloat64() * 1e3
	}
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			out, err := json.Marshal(struct {
				X []float64 `json:"x"`
			}{x})
			if err != nil {
				b.Fatal(err)
			}
			benchSink = out
		}
	})
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEncoder()
		defer e.Release()
		for b.Loop() {
			e.Reset()
			e.Raw(`{"x":`)
			e.Floats(x)
			e.Raw(`}`)
			if e.Err() != nil {
				b.Fatal(e.Err())
			}
		}
	})
}

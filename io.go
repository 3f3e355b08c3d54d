package trsparse

import (
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// ReadMatrixMarketGraph loads a graph from a Matrix Market file, accepting
// either form the SuiteSparse collection uses for the paper's test cases:
//
//   - an SDD matrix (Laplacian-like, negative off-diagonals): each strictly
//     negative off-diagonal entry a_ij becomes an edge of weight −a_ij;
//   - an adjacency/weights matrix (positive off-diagonals): each positive
//     off-diagonal entry becomes an edge with that weight.
//
// Mixed-sign off-diagonals are rejected. This is the bridge for running the
// benchmark harness on the real ecology2/thermal2/… matrices when they are
// available locally.
//
// A graph with more vertices than its edges can connect (n > m+1) is
// rejected, as the service's JSON graphs are: the reader's header bound
// counts matrix entries, diagonal ones included, so without this check a
// file of diagonal entries alone would pass it.
func ReadMatrixMarketGraph(r io.Reader) (*Graph, error) {
	a, err := sparse.ReadMatrixMarket(r)
	if err != nil {
		return nil, err
	}
	g, err := GraphFromMatrix(a)
	if err != nil {
		return nil, err
	}
	if g.N > g.M()+1 {
		return nil, fmt.Errorf("trsparse: %d vertices cannot be connected by %d edges", g.N, g.M())
	}
	return g, nil
}

// WriteMatrixMarketGraph writes g as a Matrix Market file in the
// adjacency convention ReadMatrixMarketGraph accepts (coordinate real
// symmetric, positive off-diagonals = edge weights, no diagonal).
// Weights are written with enough digits to round-trip float64 exactly,
// so Write→Read reproduces the graph bit for bit.
func WriteMatrixMarketGraph(w io.Writer, g *Graph) error {
	if g == nil {
		return fmt.Errorf("trsparse: nil graph")
	}
	tr := sparse.NewTriplet(g.N, g.N)
	for _, e := range g.Edges {
		// Lower triangle only: the symmetric writer emits entries with
		// row ≥ col, and edges are normalized U ≤ V.
		tr.Add(e.V, e.U, e.W)
	}
	return sparse.WriteMatrixMarket(w, tr.ToCSC(), true)
}

// GraphFromMatrix converts a square sparse matrix to a weighted graph per
// the rules of ReadMatrixMarketGraph.
func GraphFromMatrix(a *sparse.CSC) (*Graph, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("trsparse: matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	neg, pos := 0, 0
	for j := 0; j < a.Cols; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if i := a.RowIdx[k]; i != j {
				if a.Val[k] < 0 {
					neg++
				} else if a.Val[k] > 0 {
					pos++
				}
			}
		}
	}
	if neg > 0 && pos > 0 {
		return nil, fmt.Errorf("trsparse: matrix has %d negative and %d positive off-diagonals; cannot infer graph", neg, pos)
	}
	laplacian := neg > 0
	var edges []Edge
	for j := 0; j < a.Cols; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowIdx[k]
			if i <= j { // take each undirected edge once (lower triangle)
				continue
			}
			v := a.Val[k]
			if laplacian {
				v = -v
			}
			if v > 0 {
				edges = append(edges, Edge{U: i, V: j, W: v})
			}
		}
	}
	return graph.New(a.Rows, edges)
}

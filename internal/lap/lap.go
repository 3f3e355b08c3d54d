// Package lap assembles graph Laplacian matrices and the shared diagonal
// regularization the paper applies so that the pencil (L_G, L_S) is SPD
// with smallest generalized eigenvalue exactly 1 (paper §2 and footnote 1).
package lap

import (
	"repro/internal/graph"
	"repro/internal/sparse"
)

// DefaultShiftRel is the default relative diagonal shift: each vertex gets
// shift = DefaultShiftRel × (average weighted degree) added to its
// Laplacian diagonal. Both L_G and any subgraph Laplacian must use the
// *same* shift vector so the pencil has λmin = 1.
const DefaultShiftRel = 1e-6

// Shift returns the regularization diagonal for g: a constant vector equal
// to rel × mean weighted degree. rel ≤ 0 selects DefaultShiftRel.
func Shift(g *graph.Graph, rel float64) []float64 {
	if rel <= 0 {
		rel = DefaultShiftRel
	}
	var total float64
	for _, e := range g.Edges {
		total += 2 * e.W
	}
	mean := 1.0
	if g.N > 0 {
		mean = total / float64(g.N)
	}
	if mean == 0 {
		mean = 1
	}
	d := make([]float64, g.N)
	s := rel * mean
	for i := range d {
		d[i] = s
	}
	return d
}

// Laplacian assembles L = D − A for graph g with the given extra diagonal
// (may be nil for the exact singular Laplacian).
func Laplacian(g *graph.Graph, extraDiag []float64) *sparse.CSC {
	t := sparse.NewTriplet(g.N, g.N)
	for _, e := range g.Edges {
		t.Add(e.U, e.V, -e.W)
		t.Add(e.V, e.U, -e.W)
		t.Add(e.U, e.U, e.W)
		t.Add(e.V, e.V, e.W)
	}
	if extraDiag != nil {
		for i, v := range extraDiag {
			if v != 0 {
				t.Add(i, i, v)
			}
		}
	}
	// Ensure every diagonal entry exists even for isolated vertices so the
	// matrix stays structurally nonsingular after regularization.
	for i := 0; i < g.N; i++ {
		t.Add(i, i, 0)
	}
	return t.ToCSC()
}

package main

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
)

// The request and response structs below are the service's wire format
// as encoding/json sees it. Tests use them as the client side of the
// HTTP surface, and the differential tests and fuzz targets use them as
// the oracle for the hand-written codec: decoding a body with
// json.Decoder into these structs, then converting with toGraph and
// toDelta, is the reference the server's decoder must match, and
// json.Marshal of the response structs is the reference for its
// encoder's bytes.

// graphPayload is an inline graph: vertex count plus [u, v, w] triples.
type graphPayload struct {
	N     int          `json:"n"`
	Edges [][3]float64 `json:"edges"`
}

func (p *graphPayload) toGraph() (*graph.Graph, error) {
	if p == nil {
		return nil, errors.New("missing graph")
	}
	if p.N < 1 {
		return nil, fmt.Errorf("graph needs at least one vertex, got n=%d", p.N)
	}
	if p.N > len(p.Edges)+1 {
		return nil, fmt.Errorf("n=%d cannot be connected by %d edges", p.N, len(p.Edges))
	}
	edges := make([]graph.Edge, len(p.Edges))
	for i, e := range p.Edges {
		if e[0] != math.Trunc(e[0]) || e[1] != math.Trunc(e[1]) {
			return nil, fmt.Errorf("edge %d has non-integer endpoints [%g, %g]", i, e[0], e[1])
		}
		edges[i] = graph.Edge{U: int(e[0]), V: int(e[1]), W: e[2]}
	}
	return graph.New(p.N, edges)
}

func edgesPayload(g *graph.Graph) [][3]float64 {
	out := make([][3]float64, g.M())
	for i, e := range g.Edges {
		out[i] = [3]float64{float64(e.U), float64(e.V), e.W}
	}
	return out
}

type sparsifyRequest struct {
	Graph *graphPayload `json:"graph"`
}

type sparsifyResponse struct {
	Key             string       `json:"key"`
	N               int          `json:"n"`
	M               int          `json:"m"`
	SparsifierEdges [][3]float64 `json:"sparsifier_edges,omitempty"`
	EdgeCount       int          `json:"sparsifier_edge_count"`
	Cached          bool         `json:"cached"`
	BuildMS         float64      `json:"build_ms"`
	Sharded         *shardInfo   `json:"sharded,omitempty"`
	Precond         *precondInfo `json:"precond,omitempty"`
}

// updateRequest is the body of /v2/update and /v2/stream/{id} pushes.
type updateRequest struct {
	Key    string       `json:"key"`
	Set    [][3]float64 `json:"set,omitempty"`
	Remove [][2]float64 `json:"remove,omitempty"`
}

func (r *updateRequest) toDelta() (graph.Delta, error) {
	var d graph.Delta
	for i, e := range r.Set {
		if e[0] != math.Trunc(e[0]) || e[1] != math.Trunc(e[1]) {
			return d, fmt.Errorf("set %d has non-integer endpoints [%g, %g]", i, e[0], e[1])
		}
		d.Set = append(d.Set, graph.Edge{U: int(e[0]), V: int(e[1]), W: e[2]})
	}
	for i, e := range r.Remove {
		if e[0] != math.Trunc(e[0]) || e[1] != math.Trunc(e[1]) {
			return d, fmt.Errorf("remove %d has non-integer endpoints [%g, %g]", i, e[0], e[1])
		}
		d.Remove = append(d.Remove, [2]int{int(e[0]), int(e[1])})
	}
	return d, nil
}

type solveRequest struct {
	Key   string        `json:"key,omitempty"`
	Graph *graphPayload `json:"graph,omitempty"`
	B     []float64     `json:"b,omitempty"`
	Rhs   [][]float64   `json:"rhs,omitempty"`
	Tol   float64       `json:"tol,omitempty"`
}

type solveResponse struct {
	Key        string       `json:"key"`
	X          []float64    `json:"x"`
	Iterations int          `json:"iterations"`
	RelRes     float64      `json:"relres"`
	Converged  bool         `json:"converged"`
	Cached     bool         `json:"cached"`
	Precond    *precondInfo `json:"precond,omitempty"`
}

type solveBatchResponse struct {
	Key     string        `json:"key"`
	Results []solveColumn `json:"results"`
	Cached  bool          `json:"cached"`
	Precond *precondInfo  `json:"precond,omitempty"`
}

type partitionRequest struct {
	Key   string        `json:"key,omitempty"`
	Graph *graphPayload `json:"graph,omitempty"`
}

type partitionResponse struct {
	Key       string `json:"key"`
	Partition []int  `json:"partition"`
}

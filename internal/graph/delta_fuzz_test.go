package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fuzzWeights are the weights a fuzzed Set draws from: invalid ones
// (NaN, ±Inf, zero, negative), ordinary ones, and extremes. Index
// len(fuzzWeights) selects the edge's base weight, so no-op reweights
// and set-then-set-back sequences come up often.
var fuzzWeights = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 0.5, 1, 2, 3.25, 1e-300, 1e300}

// fuzzBase builds a small graph from the fuzz inputs: a path over n
// vertices (2..16) plus seeded random chords, weights in [1, 2).
func fuzzBase(seed int64, nb uint8) *Graph {
	r := rand.New(rand.NewSource(seed))
	n := 2 + int(nb)%15
	var edges []Edge
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{U: i - 1, V: i, W: 1 + r.Float64()})
	}
	for k := r.Intn(2 * n); k > 0; k-- {
		if u, v := r.Intn(n), r.Intn(n); u != v {
			edges = append(edges, Edge{U: u, V: v, W: 1 + r.Float64()})
		}
	}
	return MustNew(n, edges)
}

// fuzzDelta decodes ops three bytes at a time into a delta against g.
// Ops name base edges by index (so removals and reweights of existing
// edges, removing one twice, and resurrecting a removed one are common)
// or arbitrary vertex pairs (new edges, self loops, absent removals).
func fuzzDelta(g *Graph, ops []byte) Delta {
	var d Delta
	for i := 0; i+2 < len(ops); i += 3 {
		kind, a, b := ops[i]%4, int(ops[i+1]), int(ops[i+2])
		switch kind {
		case 0: // remove a base edge, either endpoint order
			e := g.Edges[a%g.M()]
			if b&1 == 0 {
				d.Remove = append(d.Remove, [2]int{e.U, e.V})
			} else {
				d.Remove = append(d.Remove, [2]int{e.V, e.U})
			}
		case 1: // set a base edge
			e := g.Edges[a%g.M()]
			w := e.W
			if k := b % (len(fuzzWeights) + 1); k < len(fuzzWeights) {
				w = fuzzWeights[k]
			}
			d.Set = append(d.Set, Edge{U: e.V, V: e.U, W: w})
		case 2: // set an arbitrary pair (may be new, a self loop or out of range)
			u, v := a%(g.N+1), b%g.N
			d.Set = append(d.Set, Edge{U: u, V: v, W: fuzzWeights[(a+b)%len(fuzzWeights)]})
		default: // remove an arbitrary pair (often absent)
			d.Remove = append(d.Remove, [2]int{a % g.N, b % (g.N + 1)})
		}
	}
	return d
}

// oracleApply is the reference semantics of Delta.ApplyPatch on maps:
// every removal must name a distinct base edge, every Set a valid pair
// with a positive finite weight; removals apply first, then Sets in
// order (add or replace). It returns the final edge map and the
// classification of the effective edits: removed base edges, added
// keys (new, or removed and set again), and base edges whose final
// weight differs from the base weight.
func oracleApply(g *Graph, d Delta) (final map[[2]int]float64, removed map[[2]int]float64, added, reweighted map[[2]int]bool, ok bool) {
	key := func(u, v int) ([2]int, bool) {
		if u < 0 || v < 0 || u >= g.N || v >= g.N || u == v {
			return [2]int{}, false
		}
		return [2]int{min(u, v), max(u, v)}, true
	}
	base := make(map[[2]int]float64, g.M())
	for _, e := range g.Edges {
		base[[2]int{e.U, e.V}] = e.W
	}
	final = make(map[[2]int]float64, g.M())
	for k, w := range base {
		final[k] = w
	}
	removed = map[[2]int]float64{}
	for _, r := range d.Remove {
		k, valid := key(r[0], r[1])
		if !valid {
			return nil, nil, nil, nil, false
		}
		w, inBase := base[k]
		if _, twice := removed[k]; !inBase || twice {
			return nil, nil, nil, nil, false
		}
		removed[k] = w
		delete(final, k)
	}
	for _, e := range d.Set {
		k, valid := key(e.U, e.V)
		if !valid || !(e.W > 0) || math.IsInf(e.W, 0) {
			return nil, nil, nil, nil, false
		}
		final[k] = e.W
	}
	added, reweighted = map[[2]int]bool{}, map[[2]int]bool{}
	for k, w := range final {
		bw, inBase := base[k]
		_, wasRemoved := removed[k]
		switch {
		case !inBase || wasRemoved:
			added[k] = true
		case w != bw:
			reweighted[k] = true
		}
	}
	return final, removed, added, reweighted, true
}

// FuzzDeltaApplyPatch holds Delta.ApplyPatch to the map-based oracle:
// the same accept/reject decision, the same edge set with bit-exact
// weights, a consistent adjacency, the same Reweighted/Added/Removed
// classification, Touched equal to the endpoints of the effective edits,
// and an OldToNew map that tracks every surviving base edge.
func FuzzDeltaApplyPatch(f *testing.F) {
	f.Add(int64(1), uint8(6), []byte{0, 0, 0, 1, 0, 7})
	f.Add(int64(2), uint8(9), []byte{0, 3, 0, 0, 3, 1})          // one edge removed twice
	f.Add(int64(3), uint8(9), []byte{0, 2, 0, 1, 2, 6})          // remove then set: resurrect
	f.Add(int64(4), uint8(5), []byte{1, 1, 7, 1, 1, 11})         // set, then set back to base
	f.Add(int64(5), uint8(7), []byte{1, 0, 0, 1, 0, 1, 1, 0, 2}) // NaN, +Inf, -Inf
	f.Add(int64(5), uint8(7), []byte{1, 0, 1})                   // +Inf alone
	f.Add(int64(6), uint8(12), []byte{2, 1, 5, 2, 1, 5, 3, 4, 4})
	f.Fuzz(func(t *testing.T, seed int64, nb uint8, ops []byte) {
		if len(ops) > 300 {
			return
		}
		g := fuzzBase(seed, nb)
		d := fuzzDelta(g, ops)
		final, removed, added, reweighted, ok := oracleApply(g, d)
		p, err := d.ApplyPatch(g)
		if (err == nil) != ok {
			t.Fatalf("ApplyPatch err = %v, oracle accepts = %v (delta %+v)", err, ok, d)
		}
		if !ok {
			return
		}

		if p.G.N != g.N || p.G.M() != len(final) {
			t.Fatalf("patched graph n=%d m=%d, want n=%d m=%d", p.G.N, p.G.M(), g.N, len(final))
		}
		for i, e := range p.G.Edges {
			w, in := final[[2]int{e.U, e.V}]
			if e.U >= e.V || !in || math.Float64bits(w) != math.Float64bits(e.W) {
				t.Fatalf("edge %d = %+v: oracle has weight %v (present %v)", i, e, w, in)
			}
			if j, found := p.G.EdgeBetween(e.U, e.V); !found || j != i {
				t.Fatalf("adjacency resolves edge %d (%d,%d) to %d, %v", i, e.U, e.V, j, found)
			}
		}

		if len(p.Removed) != len(removed) {
			t.Fatalf("Removed has %d edges, oracle %d", len(p.Removed), len(removed))
		}
		for _, e := range p.Removed {
			if w, in := removed[[2]int{e.U, e.V}]; !in || math.Float64bits(w) != math.Float64bits(e.W) {
				t.Fatalf("Removed %+v: oracle weight %v (present %v)", e, w, in)
			}
		}
		if len(p.Added) != len(added) {
			t.Fatalf("Added has %d edges, oracle %d", len(p.Added), len(added))
		}
		for i, idx := range p.Added {
			if idx != p.G.M()-len(p.Added)+i {
				t.Fatalf("Added %v is not the edge-list suffix of %d edges", p.Added, p.G.M())
			}
			if e := p.G.Edges[idx]; !added[[2]int{e.U, e.V}] {
				t.Fatalf("Added edge %+v is not an oracle addition", e)
			}
		}
		seen := map[int]bool{}
		for _, idx := range p.Reweighted {
			e := p.G.Edges[idx]
			if seen[idx] || !reweighted[[2]int{e.U, e.V}] {
				t.Fatalf("Reweighted %v: edge %d %+v duplicated or not an oracle reweight", p.Reweighted, idx, e)
			}
			seen[idx] = true
		}
		if len(p.Reweighted) != len(reweighted) {
			t.Fatalf("Reweighted has %d edges, oracle %d", len(p.Reweighted), len(reweighted))
		}

		var touched []int
		for _, set := range []map[[2]int]bool{added, reweighted} {
			for k := range set {
				touched = append(touched, k[0], k[1])
			}
		}
		for k := range removed {
			touched = append(touched, k[0], k[1])
		}
		slices.Sort(touched)
		touched = slices.Compact(touched)
		if !slices.Equal(p.Touched, touched) {
			t.Fatalf("Touched %v, want %v", p.Touched, touched)
		}

		if p.Structural() != (len(removed)+len(added) > 0) {
			t.Fatalf("Structural() = %v with %d removed, %d added", p.Structural(), len(removed), len(added))
		}
		if p.Structural() {
			if len(p.OldToNew) != g.M() {
				t.Fatalf("OldToNew covers %d base edges, want %d", len(p.OldToNew), g.M())
			}
			for i, j := range p.OldToNew {
				e := g.Edges[i]
				_, gone := removed[[2]int{e.U, e.V}]
				if gone != (j < 0) {
					t.Fatalf("OldToNew[%d] = %d, base edge removed = %v", i, j, gone)
				}
				if j >= 0 && (p.G.Edges[j].U != e.U || p.G.Edges[j].V != e.V) {
					t.Fatalf("OldToNew[%d] = %d maps (%d,%d) to (%d,%d)", i, j, e.U, e.V, p.G.Edges[j].U, p.G.Edges[j].V)
				}
			}
		}
	})
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// Differential tests of the request decoders and response encoders
// against encoding/json (the structs in wire_json_test.go). A decoder
// must fail exactly when json.Decoder.Decode into the old struct (plus
// its toGraph/toDelta conversion) fails, and otherwise produce the same
// values, floats compared bit for bit.

// oracle decodes body as the server did before the wire codec.
func oracle(body []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// wireSeeds are bodies that exercise encoding/json's corner rules:
// duplicate keys (decoded in place), case-folded and escaped keys,
// nulls, short and long tuples, out-of-range and non-integer numbers,
// and trailing bytes.
var wireSeeds = []string{
	``, `null`, `{}`, `[]`, `"x"`, `{"graph":null}`, `{} trailing`, `{"key":"k"}{"key":"j"}`,
	`{"graph":{"n":3,"edges":[[0,1,1],[1,2,2.5]]}}`,
	`{"GRAPH":{"N":3,"Edges":[[0,1,1],[1,2,2]]}}`,
	`{"gr\u0061ph":{"\u006e":2,"edges":[[0,1,1]]}}`,
	`{"graph":{"n":2,"edges":[[0,1,1]]},"graph":{"edges":[[1,0,2]]}}`,
	`{"graph":{"n":3,"edges":[[0,1,1],[1,2,1]],"edges":[[null,2]]}}`,
	`{"graph":{"n":3,"edges":[[0,1.5,1],[1,2,1]],"edges":[[0,1]]}}`,
	`{"graph":{"n":3,"edges":[[0,1,1],[1,2,1]],"edges":[],"edges":[[0]]}}`,
	`{"graph":{"n":3,"edges":[[0,1,1,9,"x",{}],[1,2]]}}`,
	`{"graph":{"n":2,"edges":[[0,1,1e400]]}}`,
	`{"graph":{"n":2,"edges":[[0,1,1e-400]]}}`,
	`{"graph":{"n":4.0,"edges":[[0,1,1]]}}`,
	`{"graph":{"n":2,"edges":[[0,1,-0]],"x":[1,{"y":null}]}}`,
	`{"graph":{"n":2,"edges":[[1e300,0.5,1]]}}`,
	`{"graph":{"n":2,"edges":[["0",1,1]]}}`,
	`{"graph":{"n":2,"edges":[[0,1,1]]}} garbage`,
	`{"key":"k","set":[[0,1,2]],"remove":[[1,2],[2,3,4]]}`,
	`{"key":null,"set":null,"remove":[[1.5,2]]}`,
	`{"Set":[[0,1,2]],"sEt":[[null,null,null]],"REMOVE":[[0,1]]}`,
	`{"key":"\ud83d\ude00","set":[[0,1]],"remove":[]}`,
	`{"key":"k","b":[1,2,-0,1e-7],"tol":1e-6}`,
	`{"key":"k","rhs":[[1,2],[3,4]],"rhs":[[null],null,[5]]}`,
	`{"key":"k","b":[1,2,3],"b":[null,4]}`,
	`{"key":"k","b":[],"rhs":[[]],"tol":null}`,
	`{"key":"k","b":[1e400]}`,
	`{"key":5}`,
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// firstFrac is the index of old's first edge with a non-integer
// endpoint, or -1.
func firstFrac(edges [][3]float64) int {
	for i, e := range edges {
		if e[0] != math.Trunc(e[0]) || e[1] != math.Trunc(e[1]) {
			return i
		}
	}
	return -1
}

// compareTuples checks decoded tuples of the given width against the
// [width]float64 arrays encoding/json decoded.
func compareTuples(t *testing.T, what string, old [][3]float64, oldNil bool, got *wire.Edges, width int) {
	t.Helper()
	if oldNil != (got.List == nil) || len(old) != len(got.List) {
		t.Fatalf("%s: encoding/json decoded %d tuples (nil %v), codec %d (nil %v)", what, len(old), oldNil, len(got.List), got.List == nil)
	}
	for i, e := range old {
		g := got.List[i]
		if e[0] == math.Trunc(e[0]) && g.U != int(e[0]) || e[1] == math.Trunc(e[1]) && g.V != int(e[1]) {
			t.Fatalf("%s %d: endpoints %v, codec (%d, %d)", what, i, e, g.U, g.V)
		}
		if width == 3 && !sameBits(e[2], g.W) {
			t.Fatalf("%s %d: weight %v (bits %#x), codec %v (bits %#x)", what, i, e[2], math.Float64bits(e[2]), g.W, math.Float64bits(g.W))
		}
	}
	err := got.Check(what)
	if i := firstFrac(old); (i >= 0) != (err != nil) ||
		i >= 0 && !strings.HasPrefix(err.Error(), fmt.Sprintf("%s %d has non-integer endpoints", what, i)) {
		t.Fatalf("%s: first non-integer tuple %d, codec check %v", what, i, err)
	}
}

func compareGraphBodies(t *testing.T, old *graphPayload, got *graphBody) {
	t.Helper()
	if (old == nil) != (got == nil) {
		t.Fatalf("graph: encoding/json nil=%v, codec nil=%v", old == nil, got == nil)
	}
	if old != nil {
		if old.N != got.N {
			t.Fatalf("graph n: encoding/json %d, codec %d", old.N, got.N)
		}
		compareTuples(t, "edge", old.Edges, old.Edges == nil, &got.Edges, 3)
	}
	og, oerr := old.toGraph()
	gg, gerr := got.toGraph()
	if (oerr != nil) != (gerr != nil) {
		t.Fatalf("toGraph: encoding/json err=%v, codec err=%v", oerr, gerr)
	}
	if oerr == nil && (og.N != gg.N || !reflect.DeepEqual(og.Edges, gg.Edges)) {
		t.Fatalf("toGraph: graphs differ")
	}
}

func comparePairs(t *testing.T, old [][2]float64, got *wire.Edges) {
	t.Helper()
	var as3 [][3]float64
	if old != nil {
		as3 = make([][3]float64, len(old))
		for i, p := range old {
			as3[i] = [3]float64{p[0], p[1]}
		}
	}
	compareTuples(t, "remove", as3, old == nil, got, 2)
}

func compareFloats(t *testing.T, what string, old, got []float64) {
	t.Helper()
	if (old == nil) != (got == nil) || len(old) != len(got) {
		t.Fatalf("%s: encoding/json %v (nil %v), codec %v (nil %v)", what, old, old == nil, got, got == nil)
	}
	for i := range old {
		if !sameBits(old[i], got[i]) {
			t.Fatalf("%s[%d]: encoding/json %v, codec %v", what, i, old[i], got[i])
		}
	}
}

// bothFail checks that the codec errs exactly when encoding/json does;
// it reports whether both succeeded.
func bothFail(t *testing.T, body []byte, oerr, gerr error) bool {
	t.Helper()
	if (oerr != nil) != (gerr != nil) {
		t.Fatalf("%q: encoding/json err=%v, codec err=%v", body, oerr, gerr)
	}
	return oerr == nil
}

func checkSparsify(t *testing.T, body []byte) {
	var old sparsifyRequest
	var got sparsifyBody
	if bothFail(t, body, oracle(body, &old), decodeJSON(body, got.member)) {
		compareGraphBodies(t, old.Graph, got.Graph)
	}
}

func checkDelta(t *testing.T, body []byte) {
	var old updateRequest
	var got deltaBody
	if !bothFail(t, body, oracle(body, &old), decodeJSON(body, got.member)) {
		return
	}
	if old.Key != got.Key {
		t.Fatalf("key: encoding/json %q, codec %q", old.Key, got.Key)
	}
	compareTuples(t, "set", old.Set, old.Set == nil, &got.Set, 3)
	comparePairs(t, old.Remove, &got.Remove)
	od, oerr := old.toDelta()
	gd, gerr := got.toDelta()
	if (oerr != nil) != (gerr != nil) {
		t.Fatalf("toDelta: encoding/json err=%v, codec err=%v", oerr, gerr)
	}
	if oerr == nil && !reflect.DeepEqual(od, gd) {
		t.Fatalf("toDelta: encoding/json %+v, codec %+v", od, gd)
	}
}

func checkSolve(t *testing.T, body []byte) {
	var old solveRequest
	var got solveBody
	if bothFail(t, body, oracle(body, &old), decodeJSON(body, got.member)) {
		if old.Key != got.Key || !sameBits(old.Tol, got.Tol) {
			t.Fatalf("key/tol: encoding/json %q %v, codec %q %v", old.Key, old.Tol, got.Key, got.Tol)
		}
		compareGraphBodies(t, old.Graph, got.Graph)
		compareFloats(t, "b", old.B, got.B)
		if (old.Rhs == nil) != (got.Rhs == nil) || len(old.Rhs) != len(got.Rhs) {
			t.Fatalf("rhs: encoding/json %d rows, codec %d", len(old.Rhs), len(got.Rhs))
		}
		for i := range old.Rhs {
			compareFloats(t, fmt.Sprintf("rhs[%d]", i), old.Rhs[i], got.Rhs[i])
		}
	}
	var oldP partitionRequest
	var gotP partitionBody
	if bothFail(t, body, oracle(body, &oldP), decodeJSON(body, gotP.member)) {
		if oldP.Key != gotP.Key {
			t.Fatalf("partition key: encoding/json %q, codec %q", oldP.Key, gotP.Key)
		}
		compareGraphBodies(t, oldP.Graph, gotP.Graph)
	}
}

func TestDecodeSeedsMatchEncodingJSON(t *testing.T) {
	for _, s := range wireSeeds {
		checkSparsify(t, []byte(s))
		checkDelta(t, []byte(s))
		checkSolve(t, []byte(s))
	}
}

func addSeeds(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
}

// FuzzDecodeSparsify: the /v2/sparsify decoder against encoding/json.
func FuzzDecodeSparsify(f *testing.F) {
	addSeeds(f)
	f.Fuzz(checkSparsify)
}

// FuzzDecodeDelta: the /v2/update and /v2/stream/{id} decoder against
// encoding/json.
func FuzzDecodeDelta(f *testing.F) {
	addSeeds(f)
	f.Fuzz(checkDelta)
}

// FuzzDecodeSolve: the /v2/solve and /v2/partition decoders against
// encoding/json.
func FuzzDecodeSolve(f *testing.F) {
	addSeeds(f)
	f.Fuzz(checkSolve)
}

// render runs a reply's hand encoder.
func render(t *testing.T, a jsonAppender) ([]byte, error) {
	t.Helper()
	e := wire.NewEncoder()
	defer e.Release()
	a.appendJSON(e)
	return bytes.Clone(e.Bytes()), e.Err()
}

// matchMarshal checks a reply's bytes against json.Marshal of the old
// response struct, including whether both refuse (NaN, ±Inf).
func matchMarshal(t *testing.T, name string, a jsonAppender, old any) {
	t.Helper()
	got, gerr := render(t, a)
	want, werr := json.Marshal(old)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: codec err=%v, json.Marshal err=%v", name, gerr, werr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s:\ncodec        %s\njson.Marshal %s", name, got, want)
	}
}

// TestRepliesMatchMarshal: every hand-encoded response renders the bytes
// json.Marshal gives for the old response struct.
func TestRepliesMatchMarshal(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1, W: 0.7169828444088467}, {U: 2, V: 40000, W: 1e-7}, {U: 3, V: 4, W: 2.5e21}, {U: 5, V: 6, W: 1}}
	sh := &shardInfo{Shards: 4, CutEdges: 10, CutFraction: 0.125, CutRetained: 3, ClustersRemote: 2}
	pc := &precondInfo{Kind: "schwarz", Clusters: 4, FactorNNZ: 100, MemBytes: 2048, BuildMS: 1.5}
	for _, tc := range []struct {
		edges   []graph.Edge
		sharded *shardInfo
		pc      *precondInfo
		buildMS float64
	}{
		{edges, sh, pc, 12.25},
		{nil, nil, nil, 0},
		{[]graph.Edge{}, nil, pc, 3e-9},
		{edges, sh, nil, math.NaN()},
		{[]graph.Edge{{U: 0, V: 1, W: math.Inf(1)}}, nil, nil, 1},
	} {
		r := &sparsifyReply{Key: "g3-4-00ff", N: 7, M: 12, SparsifierEdges: tc.edges, EdgeCount: len(tc.edges),
			Cached: tc.pc != nil, BuildMS: tc.buildMS, Sharded: tc.sharded, Precond: tc.pc}
		var old [][3]float64
		if tc.edges != nil {
			old = make([][3]float64, len(tc.edges))
			for i, e := range tc.edges {
				old[i] = [3]float64{float64(e.U), float64(e.V), e.W}
			}
		}
		matchMarshal(t, "sparsify", r, sparsifyResponse{Key: r.Key, N: r.N, M: r.M, SparsifierEdges: old, EdgeCount: r.EdgeCount,
			Cached: r.Cached, BuildMS: r.BuildMS, Sharded: r.Sharded, Precond: r.Precond})
	}

	for _, x := range [][]float64{nil, {}, {0.5, -1e-8, math.Copysign(0, -1), 1e21}, {1, math.NaN()}} {
		for _, p := range []*precondInfo{nil, pc} {
			r := &solveReply{Key: "k", X: x, Iterations: 17, RelRes: 3.2e-7, Converged: true, Cached: p == nil, Precond: p}
			matchMarshal(t, "solve", r, solveResponse{Key: r.Key, X: r.X, Iterations: r.Iterations, RelRes: r.RelRes,
				Converged: r.Converged, Cached: r.Cached, Precond: r.Precond})
		}
	}

	for _, cols := range [][]solveColumn{nil, {}, {{X: []float64{1, 2.5}, Iterations: 3, RelRes: 1e-9, Converged: true}, {X: nil, RelRes: math.Inf(1)}}, {{X: []float64{0.1}, RelRes: 0.2}}} {
		r := &solveBatchReply{Key: "k", Results: cols, Cached: true, Precond: pc}
		matchMarshal(t, "solve batch", r, solveBatchResponse{Key: r.Key, Results: r.Results, Cached: r.Cached, Precond: r.Precond})
	}

	for _, part := range [][]int{nil, {}, {0, 1, 1, 0}} {
		r := &partitionReply{Key: "k\"<>", Partition: part}
		matchMarshal(t, "partition", r, partitionResponse{Key: r.Key, Partition: r.Partition})
	}
}

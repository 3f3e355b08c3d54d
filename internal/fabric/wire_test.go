package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/sparsify"
	"repro/internal/wire"
)

// oldPayload is ClusterPayload as encoding/json saw it: the oracle for
// the wire codec's decoder and encoder.
type oldPayload struct {
	Key       string       `json:"key"`
	N         int          `json:"n"`
	Vertices  []int        `json:"vertices"`
	Edges     [][3]float64 `json:"edges"`
	Opts      WireOptions  `json:"opts"`
	Epoch     int64        `json:"epoch,omitempty"`
	PrevOwner string       `json:"prev_owner,omitempty"`
}

// clusterRequest is the conversion the worker ran on oldPayload.
func (p *oldPayload) clusterRequest() (*shard.ClusterRequest, error) {
	if p.N < 1 {
		return nil, fmt.Errorf("cluster needs at least one vertex, got n=%d", p.N)
	}
	if len(p.Vertices) != p.N {
		return nil, fmt.Errorf("vertex map covers %d vertices, n=%d", len(p.Vertices), p.N)
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
	g, err := graph.New(p.N, edges)
	if err != nil {
		return nil, err
	}
	return &shard.ClusterRequest{
		Key:     p.Key,
		Cluster: &shard.Cluster{Vertices: p.Vertices, Local: g},
		Opts:    p.Opts.sparsifyOptions(),
	}, nil
}

func checkPayload(t *testing.T, body []byte) {
	var old oldPayload
	var got ClusterPayload
	oerr := json.NewDecoder(bytes.NewReader(body)).Decode(&old)
	gerr := decodePayload(body, &got)
	if (oerr != nil) != (gerr != nil) {
		t.Fatalf("%q: encoding/json err=%v, codec err=%v", body, oerr, gerr)
	}
	if oerr != nil {
		return
	}
	if old.Key != got.Key || old.N != got.N || old.Epoch != got.Epoch || old.PrevOwner != got.PrevOwner ||
		!reflect.DeepEqual(old.Vertices, got.Vertices) || !reflect.DeepEqual(old.Opts, got.Opts) {
		t.Fatalf("%q: fields differ:\nencoding/json %+v\ncodec         %+v", body, old, got)
	}
	if (old.Edges == nil) != (got.Edges.List == nil) || len(old.Edges) != len(got.Edges.List) {
		t.Fatalf("%q: encoding/json %d edges, codec %d", body, len(old.Edges), len(got.Edges.List))
	}
	for i, e := range old.Edges {
		g := got.Edges.List[i]
		if e[0] == math.Trunc(e[0]) && g.U != int(e[0]) || e[1] == math.Trunc(e[1]) && g.V != int(e[1]) ||
			math.Float64bits(e[2]) != math.Float64bits(g.W) {
			t.Fatalf("%q: edge %d: encoding/json %v, codec %+v", body, i, e, g)
		}
	}
	oreq, oerr := old.clusterRequest()
	greq, gerr := got.clusterRequest()
	if (oerr != nil) != (gerr != nil) {
		t.Fatalf("%q: clusterRequest: encoding/json err=%v, codec err=%v", body, oerr, gerr)
	}
	if oerr == nil && !reflect.DeepEqual(oreq, greq) {
		t.Fatalf("%q: cluster requests differ", body)
	}
}

var payloadSeeds = []string{
	``, `null`, `{}`, `{"key":"c1","n":3,"vertices":[4,9,2],"edges":[[0,1,1],[1,2,0.5]],"opts":{"method":0,"seed":7}}`,
	`{"KEY":"c","N":2,"Vertices":[0,1],"EDGES":[[0,1,1]],"opts":null,"epoch":3,"prev_owner":"http://w"}`,
	`{"n":2,"vertices":[0,1],"edges":[[0,1,1]],"vertices":[null,5],"edges":[[null,null,2]]}`,
	`{"n":2,"vertices":[0,1],"edges":[[0,1.5,1]],"edges":[[0,1]]}`,
	`{"n":2.0,"vertices":[0,1],"edges":[[0,1,1]]}`,
	`{"n":2,"vertices":[0,1],"edges":[[0,1,1e400]]}`,
	`{"n":2,"vertices":[0,1e0],"edges":[[0,1,1]]}`,
	`{"n":1,"vertices":[0],"edges":[],"opts":{"method":1},"opts":{"seed":2}}`,
	`{"key":"f","factor":{"n":1,"colptr":[0,1],"rowidx":[0],"val":[2]},"factor":{"val":[3]}}`,
	`{"key":"f","factor":null,"epoch":1e2}`,
	`{"key":"x","unknown":[{"a":[1,{}]}],"edges":null} trailing`,
	`{"n":2,"vertices":[0,1],"edges":[[0,1,1,2,3],[1],[]]}`,
	`{"opts":{"method":"x"}}`,
}

func TestDecodePayloadSeedsMatchEncodingJSON(t *testing.T) {
	for _, s := range payloadSeeds {
		checkPayload(t, []byte(s))
	}
}

// FuzzDecodeClusterPayload: the worker's POST /v2/cluster decoder against
// encoding/json.
func FuzzDecodeClusterPayload(f *testing.F) {
	for _, s := range payloadSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkPayload)
}

// TestPayloadEncodingMatchesMarshal: AppendJSON renders the bytes
// json.Marshal gave for the old payload struct, with and without
// peer-fetch metadata.
func TestPayloadEncodingMatchesMarshal(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1, W: 0.7169828444088467}, {U: 1, V: 2, W: 1e-7}, {U: 0, V: 2, W: 3}}
	opts := wireOptions(sparsify.Options{Alpha: 0.05, Rounds: 5, Seed: 42})
	for _, p := range []*ClusterPayload{
		{Key: "c1", N: 3, Vertices: []int{7, 3, 9}, Edges: wire.Edges{List: edges}, Opts: opts},
		{Key: "c2", N: 3, Vertices: []int{7, 3, 9}, Edges: wire.Edges{List: edges}, Opts: opts, Epoch: 4, PrevOwner: "http://127.0.0.1:1"},
	} {
		got, err := p.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		old := oldPayload{Key: p.Key, N: p.N, Vertices: p.Vertices, Opts: p.Opts, Epoch: p.Epoch, PrevOwner: p.PrevOwner}
		if p.Edges.List != nil {
			old.Edges = make([][3]float64, len(p.Edges.List))
			for i, e := range p.Edges.List {
				old.Edges[i] = [3]float64{float64(e.U), float64(e.V), e.W}
			}
		}
		want, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("payload %s:\ncodec        %s\njson.Marshal %s", p.Key, got, want)
		}
	}
	bad := &ClusterPayload{Key: "nan", N: 2, Vertices: []int{0, 1}, Edges: wire.Edges{List: []graph.Edge{{U: 0, V: 1, W: math.NaN()}}}}
	if _, err := bad.AppendJSON(nil); err == nil {
		t.Fatal("NaN weight encoded without error")
	}
}

// TestClusterResponseMatchesMarshal: the worker's hand-encoded response
// is byte-identical to json.Marshal of ClusterResponse.
func TestClusterResponseMatchesMarshal(t *testing.T) {
	stats := sparsify.Stats{TreeTime: time.Millisecond, Total: 3 * time.Millisecond, Rounds: 5}
	for _, cr := range []ClusterResponse{
		{Edges: [][2]int{{0, 1}, {4, 2}}, Stats: stats},
		{Edges: [][2]int{{0, 1}}, Cached: true, Key: "k", PeerFetch: "hit"},
		{Edges: [][2]int{}, Stats: stats, PeerFetch: "miss"},
		{},
	} {
		e := wire.NewEncoder()
		cr.appendJSON(e)
		want, err := json.Marshal(cr)
		if err != nil {
			t.Fatal(err)
		}
		if e.Err() != nil || !bytes.Equal(e.Bytes(), want) {
			t.Fatalf("codec %s (err %v)\njson.Marshal %s", e.Bytes(), e.Err(), want)
		}
		e.Release()
	}
}

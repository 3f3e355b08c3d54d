package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	trsparse "repro"
	"repro/internal/engine"
	"repro/internal/gen"
)

// postBytes POSTs body and returns the status and the raw response.
func postBytes(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// sparsifyBytes POSTs a JSON body to /v2/sparsify (query appended) and
// returns the raw 200 response with its decoded form.
func sparsifyBytes(t *testing.T, ts *httptest.Server, query string, body []byte) ([]byte, sparsifyResponse) {
	t.Helper()
	status, raw := postBytes(t, ts.URL+"/v2/sparsify"+query, "application/json", body)
	if status != http.StatusOK {
		t.Fatalf("sparsify%s: status %d: %s", query, status, raw)
	}
	var sp sparsifyResponse
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	return raw, sp
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSparsifyDigestDifferential holds the digest path to the decode
// path: a byte-identical repeat is answered from the digest with the
// decode path's exact bytes, and every body or query that differs takes
// the decode path and lands where it did before the digest existed.
func TestSparsifyDigestDifferential(t *testing.T) {
	e := engine.New(engine.Options{Workers: 2, CacheSize: 16})
	ts := httptest.NewServer(newServer(e).handler())
	t.Cleanup(ts.Close)
	g := gen.Grid2D(20, 20, 3)
	req := graphRequest(g)
	body := mustMarshal(t, req)

	// The artifact exists before any POST, so no digest names it yet: the
	// first POST is a decode-path hit, the second a digest hit.
	art, _, err := e.Sparsify(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	decoded, sp := sparsifyBytes(t, ts, "", body)
	if !sp.Cached || sp.Key != art.Key || len(sp.SparsifierEdges) != sp.EdgeCount {
		t.Fatalf("decode-path hit: key %s cached=%v with %d of %d edges", sp.Key, sp.Cached, len(sp.SparsifierEdges), sp.EdgeCount)
	}
	hit, _ := sparsifyBytes(t, ts, "", body)
	if !bytes.Equal(hit, decoded) {
		t.Fatalf("digest hit differs from the decode path's response:\n%.300s\n%.300s", hit, decoded)
	}

	// A cold build renders its own edges; its first hit renders the
	// artifact's kept copy. Both must be the same bytes.
	g2 := gen.Grid2D(18, 18, 4)
	body2 := mustMarshal(t, graphRequest(g2))
	cold, _ := sparsifyBytes(t, ts, "", body2)
	hit2, _ := sparsifyBytes(t, ts, "", body2)
	if want := bytes.Replace(cold, []byte(`"cached":false`), []byte(`"cached":true`), 1); !bytes.Equal(hit2, want) {
		t.Fatalf("hit differs from the cold response beyond the cached flag:\n%.300s\n%.300s", hit2, cold)
	}

	t.Run("flipped weight bit", func(t *testing.T) {
		flipped := graphRequest(g)
		flipped.Graph.Edges[5][2] = math.Float64frombits(math.Float64bits(flipped.Graph.Edges[5][2]) ^ 1)
		_, sp := sparsifyBytes(t, ts, "", mustMarshal(t, flipped))
		if sp.Cached || sp.Key == art.Key {
			t.Fatalf("one flipped weight bit got key %s cached=%v, want a new artifact", sp.Key, sp.Cached)
		}
	})

	t.Run("same graph, other bytes", func(t *testing.T) {
		reordered := graphRequest(g)
		slices.Reverse(reordered.Graph.Edges)
		indented, err := json.MarshalIndent(req, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string][]byte{
			"reordered edges":  mustMarshal(t, reordered),
			"extra whitespace": indented,
		} {
			raw, sp := sparsifyBytes(t, ts, "", b)
			if !sp.Cached || sp.Key != art.Key {
				t.Fatalf("%s: key %s cached=%v, want the hit on %s", name, sp.Key, sp.Cached, art.Key)
			}
			if !bytes.Equal(raw, hit) {
				t.Fatalf("%s: response differs from the digest hit's", name)
			}
		}
	})

	t.Run("build options stay in the identity", func(t *testing.T) {
		keys := map[string]string{"": art.Key}
		for _, q := range []string{"?method=er", "?shards=2&shard_threshold=100"} {
			_, first := sparsifyBytes(t, ts, q, body)
			_, again := sparsifyBytes(t, ts, q, body)
			if first.Cached || !again.Cached || again.Key != first.Key {
				t.Fatalf("%s: first key %s cached=%v, repeat key %s cached=%v", q, first.Key, first.Cached, again.Key, again.Cached)
			}
			for other, k := range keys {
				if k == first.Key {
					t.Fatalf("%q and %q share the artifact %s", q, other, k)
				}
			}
			keys[q] = first.Key
		}
		if _, sp := sparsifyBytes(t, ts, "", body); !sp.Cached || sp.Key != art.Key {
			t.Fatalf("default options after the overrides: key %s cached=%v", sp.Key, sp.Cached)
		}
	})

	t.Run("edges=false on a hit", func(t *testing.T) {
		raw, sp := sparsifyBytes(t, ts, "?edges=false", body)
		if !sp.Cached || sp.Key != art.Key || sp.EdgeCount == 0 || bytes.Contains(raw, []byte("sparsifier_edges\"")) {
			t.Fatalf("edges=false hit: key %s cached=%v count %d: %.200s", sp.Key, sp.Cached, sp.EdgeCount, raw)
		}
	})

	t.Run("matrix market upload", func(t *testing.T) {
		var mm bytes.Buffer
		if err := trsparse.WriteMatrixMarketGraph(&mm, g); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			status, raw := postBytes(t, ts.URL+"/v2/sparsify?format=mm", "text/plain", mm.Bytes())
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, raw)
			}
			if !bytes.Equal(raw, hit) {
				t.Fatalf("Matrix Market upload of the same graph answered differently:\n%.300s", raw)
			}
		}
	})
}

// TestSparsifyCountsOneHitOrMiss: each /v2/sparsify request counts
// exactly one engine hit or miss, whichever path answers it.
func TestSparsifyCountsOneHitOrMiss(t *testing.T) {
	e := engine.New(engine.Options{Workers: 2, CacheSize: 1})
	ts := httptest.NewServer(newServer(e).handler())
	t.Cleanup(ts.Close)
	a, b := gen.Grid2D(12, 12, 1), gen.Grid2D(12, 12, 2)
	bodyA, bodyB := mustMarshal(t, graphRequest(a)), mustMarshal(t, graphRequest(b))
	reordered := graphRequest(a)
	slices.Reverse(reordered.Graph.Edges)

	for i, step := range []struct {
		what         string
		body         []byte
		cached       bool
		hits, misses int64
	}{
		{"cold build", bodyA, false, 0, 1},
		{"digest hit", bodyA, true, 1, 1},
		{"digest miss, store hit", mustMarshal(t, reordered), true, 2, 1},
		{"another graph evicts the first", bodyB, false, 2, 2},
		{"alias died with its artifact", bodyA, false, 2, 3},
		{"digest hit after the rebuild", bodyA, true, 3, 3},
	} {
		_, sp := sparsifyBytes(t, ts, "", step.body)
		st := e.Stats()
		if sp.Cached != step.cached || st.Hits != step.hits || st.Misses != step.misses {
			t.Fatalf("step %d (%s): cached=%v hits=%d misses=%d, want cached=%v hits=%d misses=%d",
				i, step.what, sp.Cached, st.Hits, st.Misses, step.cached, step.hits, step.misses)
		}
	}
}

// repeatReader yields its block over and over without allocating.
type repeatReader struct {
	block []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.block[r.off:])
		n += c
		r.off = (r.off + c) % len(r.block)
	}
	return n, nil
}

// TestOversizedBodyIs413: every route that reads a body answers a body
// over maxBodyBytes with 413 too_large, not a decode error.
func TestOversizedBodyIs413(t *testing.T) {
	ts, baseKey := streamTestServer(t, engine.Options{})
	var open streamOpenResponse
	if resp := doReq(t, "POST", ts.URL+"/v2/stream", streamOpenRequest{BaseKey: baseKey}, &open); resp.StatusCode != http.StatusOK {
		t.Fatalf("stream open status %d", resp.StatusCode)
	}
	const size = maxBodyBytes + 35
	jsonFill := strings.Repeat(" ", 4096)
	mmFill := strings.Repeat("%"+strings.Repeat("x", 62)+"\n", 64)
	for _, c := range []struct{ path, prefix, fill string }{
		{"/v2/sparsify", `{"graph":{"n":2,"edges":[[0,1,1]]}`, jsonFill},
		{"/v2/sparsify?format=mm", "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n", mmFill},
		{"/v2/update", `{"key":"` + baseKey + `"`, jsonFill},
		{"/v2/solve", `{"key":"` + baseKey + `"`, jsonFill},
		{"/v2/partition", `{"key":"` + baseKey + `"`, jsonFill},
		{"/v2/stream", `{"base_key":"` + baseKey + `"`, jsonFill},
		{"/v2/stream/" + open.ID, `{"set":[]`, jsonFill},
	} {
		body := io.MultiReader(strings.NewReader(c.prefix),
			io.LimitReader(&repeatReader{block: []byte(c.fill)}, size-int64(len(c.prefix))))
		req, err := http.NewRequest("POST", ts.URL+c.path, body)
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = size
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		var er errorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusRequestEntityTooLarge || er.Code != "too_large" {
			t.Fatalf("%s: status %d code %q (%v), want 413 too_large: %s", c.path, resp.StatusCode, er.Code, err, er.Error)
		}
	}
}

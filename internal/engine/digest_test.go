package engine

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/gen"
	"repro/internal/sparsify"
	"repro/internal/wire"
)

func TestBodyDigestSeparatesOptions(t *testing.T) {
	er := sparsify.ER
	body := []byte(`{"graph":{"n":2,"edges":[[0,1,1]]}}`)
	seen := map[Digest]string{}
	for name, bo := range map[string]BuildOpts{
		"default":    {},
		"threshold":  {ShardThreshold: 100},
		"shards":     {Shards: 100},
		"method":     {Method: &er},
		"both sizes": {ShardThreshold: 100, Shards: 100},
	} {
		d := BodyDigest(bo, body)
		if other, ok := seen[d]; ok {
			t.Fatalf("%s and %s share a digest", name, other)
		}
		seen[d] = name
		if BodyDigest(bo, body) != d {
			t.Fatalf("%s: digest not deterministic", name)
		}
	}
	if BodyDigest(BuildOpts{}, append(body, ' ')) == BodyDigest(BuildOpts{}, body) {
		t.Fatal("a changed body kept its digest")
	}
}

// TestAliasIndexBoundedByCache: ten distinct bodies of one graph, built
// under three option sets with room for two artifacts, never leave more
// than CacheSize·maxAliases aliases.
func TestAliasIndexBoundedByCache(t *testing.T) {
	const cacheSize = 2
	e := New(Options{Workers: 2, CacheSize: cacheSize})
	g := gen.Grid2D(8, 8, 1)
	er := sparsify.ER
	opts := []BuildOpts{{}, {ShardThreshold: 32}, {Method: &er}}
	for i := range 10 {
		bo := opts[i%len(opts)]
		d := BodyDigest(bo, []byte(fmt.Sprintf(`{"graph":%d}`, i)))
		art, _, err := e.SparsifyWith(context.Background(), g, bo)
		if err != nil {
			t.Fatal(err)
		}
		e.NoteDigest(d, art.Key)
		if got, ok := e.store.GetDigest(d); !ok || got != art {
			t.Fatalf("body %d: its digest does not resolve", i)
		}
		if n := len(e.store.aliases); n > cacheSize*maxAliases {
			t.Fatalf("body %d: %d aliases, bound %d", i, n, cacheSize*maxAliases)
		}
	}
}

// TestRenderedEdgesLiveWithTheArtifact: a build renders nothing; the
// first RenderedEdges call renders what wire.Encoder.Edges writes and
// later calls reuse it; the bytes are collected once the store evicts
// the artifact.
func TestRenderedEdgesLiveWithTheArtifact(t *testing.T) {
	e := New(Options{Workers: 2, CacheSize: 1})
	ctx := context.Background()
	// The artifact is only referenced inside this closure, so once the
	// store evicts it nothing but the weak pointer is left.
	kept := func() weak.Pointer[[]byte] {
		art, _, err := e.Sparsify(ctx, gen.Grid2D(10, 10, 1))
		if err != nil {
			t.Fatal(err)
		}
		if art.rendered.Load() != nil {
			t.Fatal("a build rendered its edges")
		}
		got, err := art.RenderedEdges()
		if err != nil {
			t.Fatal(err)
		}
		enc := wire.NewEncoder()
		defer enc.Release()
		enc.Edges(art.SparsifierGraph().Edges)
		if !bytes.Equal(got, enc.Bytes()) {
			t.Fatalf("rendered %.100s, want %.100s", got, enc.Bytes())
		}
		if again, _ := art.RenderedEdges(); &again[0] != &got[0] {
			t.Fatal("second call rendered again")
		}
		return weak.Make(art.rendered.Load())
	}()
	if _, _, err := e.Sparsify(ctx, gen.Grid2D(10, 10, 2)); err != nil { // evicts the first
		t.Fatal(err)
	}
	runtime.GC()
	if kept.Value() != nil {
		t.Fatal("rendered edges outlived their evicted artifact")
	}
}

// TestRenderedEdgesConcurrentFirstCalls: racing first calls all get the
// same bytes, and the artifact keeps one copy.
func TestRenderedEdgesConcurrentFirstCalls(t *testing.T) {
	e := New(Options{Workers: 2})
	art, _, err := e.Sparsify(context.Background(), gen.Grid2D(10, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = art.RenderedEdges()
		}()
	}
	wg.Wait()
	kept, _ := art.RenderedEdges()
	for i, b := range got {
		if !bytes.Equal(b, kept) {
			t.Fatalf("call %d rendered different bytes", i)
		}
	}
}

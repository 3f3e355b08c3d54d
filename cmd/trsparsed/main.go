// Command trsparsed serves the trace-reduction sparsification engine over
// HTTP/JSON: sparsifiers are built concurrently on a bounded worker pool,
// cached by graph fingerprint, and their Cholesky factorizations reused
// across PCG solves. See README.md in this directory for the endpoint
// reference with curl examples.
//
// Usage:
//
//	trsparsed -addr :8372 -workers 8 -cache 128 -job-timeout 2m
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/sparsify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trsparsed: ")

	addr := flag.String("addr", ":8372", "listen address")
	workers := flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", engine.DefaultCacheSize, "max cached sparsifier artifacts")
	clusterCache := flag.Int("cluster-cache", engine.DefaultClusterCacheSize, "max cached per-cluster artifacts for incremental /v2/update rebuilds (-1 disables)")
	clusterCacheBytes := flag.Int64("cluster-cache-bytes", 0, "byte budget for cached per-cluster sparsifier edge lists (0 = count-bounded only)")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "per-job timeout including queue wait (0 disables)")
	maxVertices := flag.Int("max-vertices", 0, "vertex bound for a single monolithic build; larger graphs go through the sharded pipeline (0 disables)")
	hardMaxVertices := flag.Int("hard-max-vertices", 0, "absolute admission cap, sharded path included (0 = 8x max-vertices)")
	shardThreshold := flag.Int("shard-threshold", 0, "shard graphs above this vertex count even below max-vertices (0 shards only when max-vertices forces it)")
	shards := flag.Int("shards", 0, "default cluster count K for sharded builds (0 = auto from threshold)")
	coalesceWindow := flag.Duration("coalesce-window", 0, "hold /v2/solve requests this long to coalesce same-artifact solves into one block solve (0 disables)")
	method := flag.String("method", "trace", "sparsification method: trace | grass | fegrass | er")
	alpha := flag.Float64("alpha", 0, "fraction of |V| off-tree edges to recover (0 = paper default 0.10)")
	rounds := flag.Int("rounds", 0, "densification rounds N_r (0 = paper default 5)")
	seed := flag.Int64("seed", 1, "random seed for sparsifier construction")
	streamSessions := flag.Int("stream-sessions", 0, "max concurrent /v2/stream sessions (0 = default 16, negative disables streaming)")
	streamStaleness := flag.Int("stream-staleness", 0, "staleness bound: max accepted pushes a session's served artifact may lag before pushes get 429 (0 = default 8)")
	streamQueue := flag.Int("stream-queue", 0, "queue depth: max pending edge edits per session before pushes get 429 (0 = default 4096)")
	flag.Parse()

	m, err := sparsify.ParseMethod(*method)
	if err != nil {
		log.Fatalf("unknown method %q (want trace, grass, fegrass, or er)", *method)
	}

	eng := engine.New(engine.Options{
		Workers:           *workers,
		CacheSize:         *cacheSize,
		ClusterCacheSize:  *clusterCache,
		ClusterCacheBytes: *clusterCacheBytes,
		JobTimeout:        *jobTimeout,
		MaxVertices:       *maxVertices,
		HardMaxVertices:   *hardMaxVertices,
		ShardThreshold:    *shardThreshold,
		Shards:            *shards,
		CoalesceWindow:    *coalesceWindow,
		Sparsify:          sparsify.Options{Method: m, Alpha: *alpha, Rounds: *rounds, Seed: *seed},
		StreamMaxSessions: *streamSessions,
		StreamStaleness:   *streamStaleness,
		StreamQueueDepth:  *streamQueue,
	})

	// Listen before Serve so the actual bound address is known — with
	// ":0" the kernel picks the port, and scripts (perfbench and the
	// process smoke test) parse it from this log line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Handler:           newServer(eng).handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Shutdown makes Serve return immediately while it is still draining
	// in-flight requests, so main must wait on drained before exiting or
	// the grace period is cut short.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("serving on %s (workers=%d cache=%d method=%s)",
		ln.Addr(), eng.Options().Workers, *cacheSize, m)
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	stop()
	<-drained
}

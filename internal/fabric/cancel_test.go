package fabric_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/gen"
	"repro/internal/shard"
	"repro/internal/sparsify"
)

// TestFleetRunCancelMidBuild cancels a fleet-dispatched shard.Run while a
// slow worker holds cluster builds in flight, then asserts that Run
// returns the cancellation promptly (not a hang, not a half-stitched
// result) and that no dispatch goroutine or its HTTP machinery outlives
// it.
func TestFleetRunCancelMidBuild(t *testing.T) {
	var served atomic.Int64
	release := make(chan struct{})
	slow := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if served.Add(1) > 1 {
				// Drain the body first: the net/http server only watches for
				// client aborts once the request body is consumed, and the
				// canceled dispatches must be able to kill these stalls.
				io.Copy(io.Discard, r.Body)
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
			}
			next.ServeHTTP(rw, r)
		})
	}
	ts, _ := startWorker(t, newMapCache(), slow)
	// Own the transport so the settle loop can retire idle keep-alive
	// conns — their read/write loops would otherwise read as leaks.
	tr := &http.Transport{}
	remote := fabric.NewRemote([]string{ts.URL}, fabric.Options{
		Retries: -1,
		Client:  &http.Client{Transport: tr},
	})
	defer close(release)

	g := gen.Grid2D(32, 32, 2)
	opts := shard.Options{Shards: 8, Dispatcher: remote, Sparsify: sparsify.Options{Seed: 3, Workers: 2}}
	plan, err := shard.NewPlan(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := shard.Run(ctx, g, plan, opts)
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for served.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no cluster build reached the worker")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}

	// Leak check: dispatches and their HTTP machinery must wind down. The
	// settle loop tolerates net/http's own transient goroutines.
	deadline = time.Now().Add(5 * time.Second)
	for {
		tr.CloseIdleConnections()
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after canceled build: %d before, %d after", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

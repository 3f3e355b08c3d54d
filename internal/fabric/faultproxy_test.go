package fabric_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gen"
	"repro/internal/sparsify"
)

// Fault classes the proxy injects. Each models a distinct production
// failure: a straggling worker, a crashing handler, a dying TCP
// connection, a response cut off mid-body, and a worker returning
// payloads that parse but are wrong in a detectable way.
const (
	faultDelay    = "delay"
	fault5xx      = "5xx"
	faultReset    = "reset"
	faultTruncate = "truncate"
	faultCorrupt  = "corrupt"
	faultMixed    = "mixed" // per-request choice among the hard classes
)

// faultProxy sits between the Remote dispatcher and a real worker,
// injecting one fault class per request. Which requests are hit — and
// which corruption or mixed sub-class they get — derives from the seed
// and the request counter alone (splitmix64), so a failing run replays
// bit-identically from its seed.
type faultProxy struct {
	t       *testing.T
	backend http.Handler
	class   string
	rate    float64 // fraction of requests faulted; ≥1 = every request
	seed    uint64

	n        atomic.Uint64
	injected atomic.Int64
}

func newFaultProxy(t *testing.T, backend http.Handler, class string, rate float64, seed uint64) *faultProxy {
	return &faultProxy{t: t, backend: backend, class: class, rate: rate, seed: seed}
}

// mix is splitmix64: the per-request deterministic random source.
func (fp *faultProxy) mix(k, salt uint64) uint64 {
	x := fp.seed + (k+1)*0x9e3779b97f4a7c15 + salt*0xd1342543de82ef95
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (fp *faultProxy) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	k := fp.n.Add(1) - 1
	// The first request through a proxy always faults; later ones fault
	// at rate. Rendezvous placement depends on the kernel-assigned
	// httptest ports, so how many requests each proxy sees varies run to
	// run — the floor keeps "every sub-rate proxy injected something"
	// true by construction, while the bit-identity assertions must hold
	// under any injection pattern anyway.
	if k > 0 && fp.rate < 1 && float64(fp.mix(k, 0)>>11)/float64(1<<53) >= fp.rate {
		fp.backend.ServeHTTP(rw, r)
		return
	}
	class := fp.class
	if class == faultMixed {
		class = []string{fault5xx, faultReset, faultTruncate, faultCorrupt}[fp.mix(k, 1)%4]
	}
	fp.injected.Add(1)
	switch class {
	case faultDelay:
		time.Sleep(20 * time.Millisecond)
		fp.backend.ServeHTTP(rw, r)
	case fault5xx:
		http.Error(rw, "injected worker crash", http.StatusInternalServerError)
	case faultReset:
		// Kill the TCP connection without an HTTP response: the client
		// sees a reset/EOF, not a status.
		conn, _, err := rw.(http.Hijacker).Hijack()
		if err != nil {
			fp.t.Errorf("hijack for reset: %v", err)
			return
		}
		conn.Close()
	case faultTruncate:
		// A full header promising the whole body, then half of it: the
		// decoder fails with an unexpected EOF mid-object.
		rec := httptest.NewRecorder()
		fp.backend.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		conn, bw, err := rw.(http.Hijacker).Hijack()
		if err != nil {
			fp.t.Errorf("hijack for truncate: %v", err)
			return
		}
		fmt.Fprintf(bw, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
		bw.Write(body[:len(body)/2])
		bw.Flush()
		conn.Close()
	case faultCorrupt:
		rec := httptest.NewRecorder()
		fp.backend.ServeHTTP(rec, r)
		fp.corrupt(rw, rec, k)
	default:
		fp.t.Errorf("unknown fault class %q", class)
	}
}

// corrupt rewrites a successful worker response into one that parses (or
// deliberately doesn't) but must be rejected by the coordinator's
// validation. Every corruption here is *detectable by design*: foreign,
// duplicated or missing edges.
func (fp *faultProxy) corrupt(rw http.ResponseWriter, rec *httptest.ResponseRecorder, k uint64) {
	if rec.Code != http.StatusOK {
		// Pass error responses through; there is nothing to corrupt.
		rw.WriteHeader(rec.Code)
		rw.Write(rec.Body.Bytes())
		return
	}
	var cr fabric.ClusterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		fp.t.Errorf("decoding worker response to corrupt it: %v", err)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	switch fp.mix(k, 2) % 3 {
	case 0: // duplicated edge
		cr.Edges = append(cr.Edges, cr.Edges[0])
	case 1: // foreign endpoint
		cr.Edges[0] = [2]int{0, 1 << 30}
	case 2: // too few edges to span the cluster
		cr.Edges = cr.Edges[:1]
	}
	buf, err := json.Marshal(&cr)
	if err != nil {
		fp.t.Errorf("re-encoding corrupted response: %v", err)
		return
	}
	rw.Write(buf)
}

// startFaultedWorker serves a real worker behind a fault proxy.
func startFaultedWorker(t *testing.T, class string, rate float64, seed uint64) (*httptest.Server, *faultProxy) {
	t.Helper()
	w := fabric.NewWorker(newMapCache(), 2)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/cluster", w.ServeCluster)
	fp := newFaultProxy(t, mux, class, rate, seed)
	ts := httptest.NewServer(fp)
	t.Cleanup(ts.Close)
	return ts, fp
}

// faultCfg is the shared build configuration of the fault tests: big
// enough for several non-tiny clusters, small enough to build many times.
func faultCfg() core.Config {
	return core.Config{
		ShardThreshold: 100,
		Shards:         4,
		Sparsify:       sparsify.Options{Seed: 5},
	}
}

// buildAndSolve builds a sparsifier under cfg and solves one fixed
// right-hand side, returning the handle and the PCG iteration count.
func buildAndSolve(t *testing.T, cfg core.Config) (*core.Sparsifier, int) {
	t.Helper()
	g := gen.Grid2D(20, 20, 3)
	s, err := core.NewSparsifier(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b := make([]float64, g.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res, err := s.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	return s, res.Iterations
}

// sameSparsifier asserts two handles hold bit-identical sparsifiers.
func sameSparsifier(t *testing.T, name string, want, got *core.Sparsifier) {
	t.Helper()
	ws, gs := want.SparsifierGraph(), got.SparsifierGraph()
	if ws.M() != gs.M() {
		t.Fatalf("%s: sparsifier has %d edges, want %d", name, gs.M(), ws.M())
	}
	for i := range ws.Edges {
		if ws.Edges[i] != gs.Edges[i] {
			t.Fatalf("%s: edge %d differs: %+v vs %+v", name, i, gs.Edges[i], ws.Edges[i])
		}
	}
}

// TestEveryFaultClassDegradesToLocal is the harness's core table: with a
// single worker that fails EVERY request in one specific way, every
// cluster dispatch must degrade to the in-process fallback and the build
// must come out bit-identical to a never-dispatched one — same edges,
// same PCG iteration count — with the degradation visible in Stats.
func TestEveryFaultClassDegradesToLocal(t *testing.T) {
	want, wantIters := buildAndSolve(t, faultCfg())

	for _, class := range []string{fault5xx, faultReset, faultTruncate, faultCorrupt} {
		t.Run(class, func(t *testing.T) {
			ts, fp := startFaultedWorker(t, class, 1, 42)
			remote := fabric.NewRemote([]string{ts.URL}, fabric.Options{
				Retries: -1,
				Backoff: time.Millisecond,
				Timeout: 10 * time.Second,
			})
			cfg := faultCfg()
			cfg.Dispatcher = remote
			got, gotIters := buildAndSolve(t, cfg)

			sameSparsifier(t, class, want, got)
			if gotIters != wantIters {
				t.Fatalf("PCG iterations differ under %s faults: %d vs %d", class, gotIters, wantIters)
			}
			st := remote.Stats()
			if st.RemoteClusters != 0 {
				t.Fatalf("%s: %d dispatches counted as remote successes", class, st.RemoteClusters)
			}
			if st.FallbackLocal == 0 {
				t.Fatalf("%s: degradation not recorded: %+v", class, st)
			}
			if fp.injected.Load() == 0 {
				t.Fatalf("%s: proxy injected nothing — the test exercised no fault", class)
			}
			if len(st.Workers) != 1 || st.Workers[0].Failed == 0 {
				t.Fatalf("%s: worker health shows no failures: %+v", class, st.Workers)
			}
		})
	}
}

// TestDelayFaultsStillServeRemotely: injected delays (below the attempt
// deadline) are the one fault class that must NOT degrade — the dispatch
// just takes longer, and the result is still served by the fleet.
func TestDelayFaultsStillServeRemotely(t *testing.T) {
	want, wantIters := buildAndSolve(t, faultCfg())

	ts, fp := startFaultedWorker(t, faultDelay, 1, 7)
	remote := fabric.NewRemote([]string{ts.URL}, fabric.Options{Timeout: 30 * time.Second})
	cfg := faultCfg()
	cfg.Dispatcher = remote
	got, gotIters := buildAndSolve(t, cfg)

	sameSparsifier(t, faultDelay, want, got)
	if gotIters != wantIters {
		t.Fatalf("PCG iterations differ under delays: %d vs %d", gotIters, wantIters)
	}
	st := remote.Stats()
	if st.RemoteClusters == 0 || st.FallbackLocal != 0 {
		t.Fatalf("delayed worker should still serve remotely: %+v", st)
	}
	if fp.injected.Load() == 0 {
		t.Fatal("proxy injected no delays")
	}
}

// TestSeededMixedFaultsStayBitIdentical is the property form: two workers
// behind seeded proxies that each fault a fraction of requests with a
// per-request mix of hard fault classes. Whatever the (deterministic)
// fault pattern does — retries landing on the second worker, hedges,
// full degradation — the build must stay bit-identical to the local one
// and every dispatch must be accounted either remote or fallback.
func TestSeededMixedFaultsStayBitIdentical(t *testing.T) {
	want, wantIters := buildAndSolve(t, faultCfg())

	for _, seed := range []uint64{1, 1337} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w1, p1 := startFaultedWorker(t, faultMixed, 0.4, seed)
			w2, p2 := startFaultedWorker(t, faultMixed, 0.4, seed+100)
			remote := fabric.NewRemote([]string{w1.URL, w2.URL}, fabric.Options{
				Backoff: time.Millisecond,
				Timeout: 10 * time.Second,
			})
			cfg := faultCfg()
			cfg.Dispatcher = remote
			got, gotIters := buildAndSolve(t, cfg)

			sameSparsifier(t, "mixed", want, got)
			if gotIters != wantIters {
				t.Fatalf("PCG iterations differ under mixed faults: %d vs %d", gotIters, wantIters)
			}
			st := remote.Stats()
			shardStats := got.ShardStats()
			if shardStats == nil {
				t.Fatal("sharded build left no shard stats")
			}
			if int64(shardStats.ClustersRemote) != st.RemoteClusters {
				t.Fatalf("build counted %d remote clusters, dispatcher %d",
					shardStats.ClustersRemote, st.RemoteClusters)
			}
			if p1.injected.Load()+p2.injected.Load() == 0 {
				t.Fatal("seeded proxies injected nothing at rate 0.4")
			}
		})
	}
}

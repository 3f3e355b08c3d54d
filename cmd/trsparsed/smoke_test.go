package main

import (
	"bufio"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/precond"
)

var servingRE = regexp.MustCompile(`serving on ([^ ]+:\d+) `)

// startWorkerProcess builds the trsparsed binary, spawns it in -worker
// mode on a kernel-assigned port, and returns the worker's base URL. This
// is the two-process deployment check: everything else in this package
// exercises the fabric in-process via httptest.
func startWorkerProcess(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "trsparsed")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building trsparsed: %v\n%s", err, out)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cmd := exec.CommandContext(ctx, bin, "-worker", "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		cmd.Wait()
	})

	// The worker logs its actual bound address ("serving on HOST:PORT")
	// once the listener is up; parse it rather than racing a fixed port.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("worker process never reported its listen address")
		return ""
	}
}

// TestWorkerProcessSmoke spawns a real `trsparsed -worker` process and
// runs a fleet-dispatched sharded build against it, checking the result
// matches the purely local build — same sparsifier edges, same PCG
// iteration count on a shared right-hand side — and that the worker
// actually served clusters. Skipped under -short (it builds and execs the binary); CI
// runs it explicitly.
func TestWorkerProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("two-process smoke test skipped in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available to build the worker binary")
	}
	if os.Getenv("GOCACHE") == "" {
		// exec.Command("go", "build") needs a build cache; in hermetic
		// environments HOME may be unset. The default resolution handles
		// the common case, so only proactively skip when it cannot.
		if _, err := os.UserCacheDir(); err != nil {
			t.Skipf("no build cache available: %v", err)
		}
	}

	workerURL := startWorkerProcess(t)

	// Wait for the worker to answer its health probe.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(workerURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never became healthy: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	g := gen.Grid2D(20, 20, 3)

	local := engine.New(engine.Options{Workers: 4, CacheSize: 8, ShardThreshold: 100})
	fleet := engine.New(engine.Options{
		Workers:        4,
		CacheSize:      8,
		ShardThreshold: 100,
		Fleet:          []string{workerURL},
	})
	lart, _, err := local.Sparsify(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	fart, _, err := fleet.Sparsify(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	ls, fs := lart.SparsifierGraph(), fart.SparsifierGraph()
	if !reflect.DeepEqual(ls.Edges, fs.Edges) {
		t.Fatalf("fleet build differs from local: %d vs %d edges", fs.M(), ls.M())
	}
	b := make([]float64, g.N)
	rng := rand.New(rand.NewSource(9))
	var sum float64
	for i := range b {
		b[i] = rng.NormFloat64()
		sum += b[i]
	}
	for i := range b {
		b[i] -= sum / float64(len(b)) // project onto range(L)
	}
	lsol, err := lart.Handle.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	fsol, err := fart.Handle.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if lsol.Iterations != fsol.Iterations {
		t.Fatalf("PCG iterations differ across the process boundary: local %d, fleet %d", lsol.Iterations, fsol.Iterations)
	}
	if st := fart.Handle.ShardStats(); st == nil || st.ClustersRemote == 0 {
		t.Fatalf("worker process served no clusters: %+v", st)
	}

	// The worker's stats endpoint must agree that it did the work.
	resp, err := http.Get(workerURL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ws workerStatsResponse
	decodeBody(t, resp, &ws)
	if ws.Served == 0 {
		t.Fatalf("worker process reports zero clusters served: %+v", ws)
	}
}

// TestRemoteFactorsProcessSmoke checks what became of -remote-factors
// across a real process boundary. A fleet-dispatched Schwarz build is
// bit-for-bit the local build — same sparsifier edges, same PCG iteration
// count — with every per-cluster factor built in the coordinator process.
// A factor job in the wire shape an older coordinator with remote factors
// enabled still sends is answered with 400 invalid_request, the reply that
// makes such a coordinator factorize locally.
func TestRemoteFactorsProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("two-process smoke test skipped in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available to build the worker binary")
	}
	workerURL := startWorkerProcess(t)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(workerURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never became healthy: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	g := gen.Grid2D(20, 20, 3)
	b := make([]float64, g.N)
	rng := rand.New(rand.NewSource(9))
	var sum float64
	for i := range b {
		b[i] = rng.NormFloat64()
		sum += b[i]
	}
	for i := range b {
		b[i] -= sum / float64(len(b)) // project onto range(L)
	}
	solve := func(eng *engine.Engine) (*graph.Graph, int, *engine.Artifact) {
		t.Helper()
		art, _, err := eng.Sparsify(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := art.Handle.Solve(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		return art.Handle.SparsifierGraph(), sol.Iterations, art
	}

	local := engine.New(engine.Options{
		Workers: 4, CacheSize: 8, ShardThreshold: 100, Precond: precond.Schwarz,
	})
	fleet := engine.New(engine.Options{
		Workers: 4, CacheSize: 8, ShardThreshold: 100, Precond: precond.Schwarz,
		Fleet: []string{workerURL},
	})
	ls, liters, _ := solve(local)
	fs, fiters, fart := solve(fleet)
	if !reflect.DeepEqual(ls.Edges, fs.Edges) {
		t.Fatalf("fleet Schwarz build differs from local: %d vs %d edges", fs.M(), ls.M())
	}
	if liters != fiters {
		t.Fatalf("PCG iterations differ across the process boundary: local %d, fleet %d", liters, fiters)
	}
	if ps := fart.Handle.PrecondStats(); ps == nil || ps.Kind != "schwarz" || ps.Clusters == 0 {
		t.Fatalf("fleet build did not factorize its Schwarz clusters in-process: %+v", ps)
	}
	if st := fart.Handle.ShardStats(); st == nil || st.ClustersRemote == 0 {
		t.Fatalf("worker process served no clusters: %+v", st)
	}

	// An older coordinator's factor job: a "factor" block, no cluster.
	job := `{"key":"k","factor":{"n":2,"colptr":[0,2,4],"rowidx":[0,1,0,1],"val":[2,-1,-1,2]}}`
	resp, err := http.Post(workerURL+"/v2/cluster", "application/json", strings.NewReader(job))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Code string `json:"code"`
	}
	decodeBody(t, resp, &e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || e.Code != "invalid_request" {
		t.Fatalf("factor job: status %d code %q, want 400 invalid_request", resp.StatusCode, e.Code)
	}

	// The worker's stats endpoint shows the cluster builds and the one
	// rejected factor job.
	resp, err = http.Get(workerURL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ws workerStatsResponse
	decodeBody(t, resp, &ws)
	if ws.Served == 0 || ws.Failures != 1 {
		t.Fatalf("worker process stats = %+v, want clusters served and exactly one failure", ws)
	}
}

// TestCoordinatorRejectsWorkerPlusFleet pins the flag validation: one
// process cannot be both sides of the fabric.
func TestCoordinatorRejectsWorkerPlusFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("binary exec test skipped in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	bin := filepath.Join(t.TempDir(), "trsparsed")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building trsparsed: %v\n%s", err, out)
	}
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	out, err := exec.Command(bin, "-worker", "-fleet", srv.URL).CombinedOutput()
	if err == nil {
		t.Fatalf("-worker -fleet accepted; output: %s", out)
	}
	if want := "mutually exclusive"; !regexp.MustCompile(want).Match(out) {
		t.Fatalf("unexpected rejection message: %s", out)
	}
}

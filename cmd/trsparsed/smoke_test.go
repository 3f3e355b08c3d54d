package main

import (
	"bufio"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/gen"
)

var servingRE = regexp.MustCompile(`serving on ([^ ]+:\d+) `)

// serverProcess is a trsparsed binary running as a child process.
type serverProcess struct {
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
	err  error         // cmd.Wait's result, valid after done
}

// startServerProcess builds the trsparsed binary, starts it with args on
// a kernel-assigned port, and returns once the process has logged its
// bound address. It skips the test where the binary cannot be built.
func startServerProcess(t *testing.T, args ...string) *serverProcess {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available to build the server binary")
	}
	if os.Getenv("GOCACHE") == "" {
		// exec.Command("go", "build") needs a build cache; in hermetic
		// environments HOME may be unset. The default resolution handles
		// the common case, so only proactively skip when it cannot.
		if _, err := os.UserCacheDir(); err != nil {
			t.Skipf("no build cache available: %v", err)
		}
	}
	bin := filepath.Join(t.TempDir(), "trsparsed")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building trsparsed: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serverProcess{cmd: cmd, done: make(chan struct{})}
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-p.done
	})

	// The server logs its actual bound address ("serving on HOST:PORT")
	// once the listener is up; parse it rather than racing a fixed port.
	// Wait must follow the last read of the pipe, so the reader reaps.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		p.err = cmd.Wait()
		close(p.done)
	}()
	select {
	case addr := <-addrCh:
		p.url = "http://" + addr
		return p
	case <-p.done:
		t.Fatalf("server process exited before serving: %v", p.err)
	case <-time.After(30 * time.Second):
		t.Fatal("server process never reported its listen address")
	}
	return nil
}

// TestServerProcessSmoke runs the real trsparsed binary the way perfbench
// and deployments start it: it must report its address on the "serving
// on" line, serve a sharded /v2/sparsify and a converging /v2/solve,
// answer 404 on the removed cluster routes, and exit 0 on SIGTERM.
// Skipped under -short (it builds and execs the binary); CI runs it by
// name.
func TestServerProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process smoke test skipped in -short mode")
	}
	p := startServerProcess(t, "-shard-threshold", "1024")

	g := gen.Grid2D(40, 40, 3) // 1600 vertices, above the shard threshold
	var sp sparsifyResponse
	if resp := postJSON(t, p.url+"/v2/sparsify?edges=false", graphRequest(g), &sp); resp.StatusCode != http.StatusOK {
		t.Fatalf("sparsify status = %d", resp.StatusCode)
	}
	if sp.Sharded == nil || sp.Sharded.Shards < 2 {
		t.Fatalf("build above -shard-threshold was not sharded: %+v", sp.Sharded)
	}
	b := make([]float64, g.N)
	for i := range b {
		b[i] = signOf(i)
	}
	var sol solveResponse
	if resp := postJSON(t, p.url+"/v2/solve", solveRequest{Key: sp.Key, B: b, Tol: 1e-6}, &sol); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d", resp.StatusCode)
	}
	if !sol.Converged || sol.RelRes > 1e-6 {
		t.Fatalf("solve did not converge to 1e-6: iters=%d relres=%g", sol.Iterations, sol.RelRes)
	}

	for _, r := range []struct{ method, path string }{{http.MethodPost, "/v2/cluster"}, {http.MethodGet, "/v2/cluster/x"}} {
		req, err := http.NewRequest(r.method, p.url+r.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s status = %d, want 404", r.method, r.path, resp.StatusCode)
		}
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.done:
		if p.err != nil {
			t.Fatalf("server exit after SIGTERM: %v, want status 0", p.err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
}

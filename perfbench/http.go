package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/graph"
)

// server is one trsparsed child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	logs   chan struct{} // closed once the log reader has drained stderr
	tail   []string
	exited chan error
}

// startServer launches bin with flags on a kernel-chosen loopback port
// and waits for its "serving on" log line.
func startServer(ctx context.Context, bin string, flags []string) (*server, error) {
	args := append(append([]string(nil), flags...), "-addr", "127.0.0.1:0")
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	// The server runs with the Go runtime's default collector and
	// scheduler settings, whatever the driver's environment holds.
	cmd.Env = []string{}
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); k != "GOGC" && k != "GOMEMLIMIT" && k != "GODEBUG" && k != "GOMAXPROCS" {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	// A driver killed from outside must not leave its server running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, logs: make(chan struct{}), exited: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logs)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on "); i >= 0 {
				f := strings.Fields(line[i+len("serving on "):])
				if len(f) > 0 {
					select {
					case addr <- f[0]:
					default:
					}
				}
			}
			if len(s.tail) < 20 {
				s.tail = append(s.tail, line)
			}
		}
	}()
	go func() { s.exited <- cmd.Wait() }()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case err := <-s.exited:
		<-s.logs
		return nil, fmt.Errorf("server exited before serving: %v: %s", err, strings.Join(s.tail, " | "))
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("server did not report its address within 30s")
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
}

// peakRSSMB reads VmHWM, the resident high-water mark, of the server.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop terminates the server and waits for it and its log reader.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	<-s.logs
}

// httpExec drives a server with one closed-loop client on one
// keep-alive connection.
type httpExec struct {
	srv     *server
	client  *http.Client
	streams sessions[string] // stream ids
	// busyMS sums the latency of every request sent, stream opens and
	// closes included: the server's share of a phase, without the
	// driver's own work between requests.
	busyMS float64
}

func newHTTPExec(srv *server) *httpExec {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpExec{srv: srv, client: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

// do sends one request and reads the whole response; the returned
// latency covers sending the pre-encoded body and receiving every byte.
func (h *httpExec) do(method, path string, body []byte) ([]byte, float64, error) {
	req, err := http.NewRequest(method, h.srv.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	ms := msSince(start)
	h.busyMS += ms
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, ms, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func (h *httpExec) build(g *graph.Graph, _ *obs) (obs, error) {
	edges := make([][3]float64, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = [3]float64{float64(e.U), float64(e.V), e.W}
	}
	body, err := json.Marshal(map[string]any{"graph": map[string]any{"n": g.N, "edges": edges}})
	if err != nil {
		return obs{}, err
	}
	raw, ms, err := h.do("POST", "/v2/sparsify", body)
	if err != nil {
		return obs{}, err
	}
	var r struct {
		Key       string       `json:"key"`
		Edges     [][3]float64 `json:"sparsifier_edges"`
		EdgeCount int          `json:"sparsifier_edge_count"`
		Cached    bool         `json:"cached"`
		Sharded   *struct{}    `json:"sharded"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return obs{}, fmt.Errorf("decoding sparsify response: %w", err)
	}
	if r.Key == "" || r.EdgeCount != len(r.Edges) {
		return obs{}, fmt.Errorf("sparsify response has key %q and %d edges for a count of %d", r.Key, len(r.Edges), r.EdgeCount)
	}
	return obs{key: r.Key, edges: r.EdgeCount, cached: r.Cached, sharded: r.Sharded != nil,
		sparsifier: r.Edges, ms: ms, reqBytes: len(body), respBytes: len(raw)}, nil
}

func deltaBody(d graph.Delta) map[string]any {
	set := make([][3]float64, len(d.Set))
	for i, e := range d.Set {
		set[i] = [3]float64{float64(e.U), float64(e.V), e.W}
	}
	rm := make([][2]float64, len(d.Remove))
	for i, r := range d.Remove {
		rm[i] = [2]float64{float64(r[0]), float64(r[1])}
	}
	return map[string]any{"set": set, "remove": rm}
}

func (h *httpExec) push(key string, d graph.Delta, _ *obs) (obs, error) {
	id, ok := h.streams.get(key)
	if !ok {
		body, _ := json.Marshal(map[string]string{"base_key": key})
		raw, _, err := h.do("POST", "/v2/stream", body)
		if err != nil {
			return obs{}, err
		}
		var r struct {
			ID string `json:"stream_id"`
		}
		if err := json.Unmarshal(raw, &r); err != nil || r.ID == "" {
			return obs{}, fmt.Errorf("opening stream: %v (%s)", err, raw)
		}
		id = r.ID
		for _, old := range h.streams.put(key, id) {
			if err := h.closeStream(old); err != nil {
				return obs{}, err
			}
		}
	}
	body, err := json.Marshal(deltaBody(d))
	if err != nil {
		return obs{}, err
	}
	raw, ms, err := h.do("POST", "/v2/stream/"+id+"?wait=1", body)
	if err != nil {
		return obs{}, err
	}
	var r struct {
		Key    string `json:"key"`
		Update struct {
			Cached    bool `json:"cached"`
			LGPatched bool `json:"lg_patched"`
		} `json:"update"`
		Reuse struct {
			FactorsReused int `json:"factors_reused"`
		} `json:"reuse"`
	}
	if err := json.Unmarshal(raw, &r); err != nil || r.Key == "" {
		return obs{}, fmt.Errorf("decoding stream push response: %v (%.200s)", err, raw)
	}
	h.streams.move(key, r.Key)
	return obs{key: r.Key, cached: r.Update.Cached, lgPatched: r.Update.LGPatched, reused: r.Reuse.FactorsReused,
		ms: ms, reqBytes: len(body), respBytes: len(raw)}, nil
}

func (h *httpExec) closeStream(id string) error {
	_, _, err := h.do("DELETE", "/v2/stream/"+id, nil)
	return err
}

type solveColumn struct {
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	RelRes     float64   `json:"relres"`
	Converged  bool      `json:"converged"`
}

func (h *httpExec) solve(key string, bs [][]float64, _ *obs) (obs, error) {
	req := map[string]any{"key": key, "tol": solveTol}
	if len(bs) == 1 {
		req["b"] = bs[0]
	} else {
		req["rhs"] = bs
	}
	body, err := json.Marshal(req)
	if err != nil {
		return obs{}, err
	}
	raw, ms, err := h.do("POST", "/v2/solve", body)
	if err != nil {
		return obs{}, err
	}
	var cols []solveColumn
	if len(bs) == 1 {
		var c solveColumn
		err = json.Unmarshal(raw, &c)
		cols = []solveColumn{c}
	} else {
		var r struct {
			Results []solveColumn `json:"results"`
		}
		err = json.Unmarshal(raw, &r)
		cols = r.Results
	}
	if err != nil {
		return obs{}, fmt.Errorf("decoding solve response: %w", err)
	}
	if len(cols) != len(bs) {
		return obs{}, fmt.Errorf("solve returned %d results for %d right-hand sides", len(cols), len(bs))
	}
	o := obs{key: key, ms: ms, reqBytes: len(body), respBytes: len(raw)}
	for _, c := range cols {
		o.iters = append(o.iters, c.Iterations)
		o.xs = append(o.xs, c.X)
		if !c.Converged || c.RelRes > solveTol {
			o.solveErr = fmt.Errorf("server reports converged=%v relres=%g", c.Converged, c.RelRes)
		}
	}
	return o, nil
}

func (h *httpExec) close() error {
	for _, id := range h.streams.all() {
		if err := h.closeStream(id); err != nil {
			return err
		}
	}
	h.streams = sessions[string]{}
	return nil
}

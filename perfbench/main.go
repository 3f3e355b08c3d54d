// Command perfbench is the sparsifier service's benchmark. For one
// workload it starts fresh trsparsed processes, drives one with a
// seeded, fixed sequence of requests from one closed-loop client on one
// HTTP connection, checks every response, and prints the end-to-end
// metrics. With -trace 1 it then replays the same requests in-process,
// once through the engine and once through each layer's exported
// functions with a span around every call, and prints the per-layer
// metrics instead; the replays must reproduce the HTTP run's sparsifier
// edge counts and PCG iteration counts exactly.
//
// Run it through run.py, which builds the server and this driver from the
// checkout first:
//
//	python3 perfbench/run.py --workload build-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the JSON result; the metric table,
// environment stamp and any failures go to standard error.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// runBudget bounds one invocation; the contract allows 180 seconds.
const runBudget = 170 * time.Second

// setupStarts is how many servers an untraced run starts, each with the
// workload's setup; setup_s is their median and the last one serves the
// measured phase. A traced run reports no setup_s and starts one.
const setupStarts = 3

func main() {
	name := flag.String("workload", "", "workload: build-cold, update-stream or solve-hot")
	seed := flag.Int64("seed", 1, "workload seed; all inputs derive from it")
	seconds := flag.Float64("seconds", 20, "minimum length of the measured phase")
	trace := flag.Int("trace", 0, "1 replays the run in-process and reports per-layer metrics")
	bin := flag.String("server", "", "trsparsed binary")
	out := flag.String("out", ".", "directory for the spans file")
	commit := flag.String("commit", "unknown", "commit being measured, for the environment stamp")
	flag.Parse()

	res, err := run(*name, *seed, *seconds, *trace == 1, *bin, *out, *commit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func run(name string, seed int64, seconds float64, trace bool, bin, out string, commit string) (*result, error) {
	wl, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	if bin == "" {
		return nil, errors.New("-server is required")
	}
	setups := setupStarts
	if trace {
		setups = 1
	}
	stampEnv(wl, seed, commit)
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	deadline, _ := ctx.Deadline()

	// Every server start repeats the same setup; the last server serves
	// the measured phase, so each run gets a fresh process. A start's
	// setup time is the server's alone: from process start until it
	// reports its address, plus the latency of every setup request.
	// Generating and encoding inputs and checking responses happen
	// between requests and are not counted.
	var setupS []float64
	var srv *server
	var hx *httpExec
	var r *runner
	var setup phase
	for k := 0; k < setups; k++ {
		start := time.Now()
		if srv, err = startServer(ctx, bin, wl.serverFlags()); err != nil {
			return nil, err
		}
		launch := time.Since(start).Seconds()
		hx = newHTTPExec(srv)
		r = newRunner(wl, seed, hx, true)
		setup, err = r.runSteps(wl.setup(r.w), nil)
		setupS = append(setupS, launch+hx.busyMS/1000)
		if err == nil && k < setups-1 {
			err = hx.close()
		}
		if err != nil || k < setups-1 {
			srv.stop()
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	mins := wl.minSamples
	if trace {
		// The replays cost twice the HTTP run; a traced run measures
		// just the samples every per-layer median needs.
		mins = [numOps]int{minTimingSamples, minTimingSamples, minTimingSamples, minTimingSamples}
	}
	meas, err := r.runMeasured(seconds, mins, deadline)
	rss, rssErr := srv.peakRSSMB()
	if cerr := hx.close(); err == nil {
		err = cerr
	}
	srv.stop()
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	if rssErr != nil {
		return nil, rssErr
	}

	// κ is computed off the clock, from the edges the server returned; a
	// traced run does not report it.
	var kappas []float64
	if trace {
		r.kappa = nil
	}
	for _, k := range r.kappa {
		v, err := kappa(ctx, k)
		if err != nil {
			return nil, err
		}
		kappas = append(kappas, v)
	}
	e2e := e2eMetrics(meas, setupS, kappas, r.failed, rss)
	res := &result{Correct: r.failed == 0 && e2e.err == nil, Failed: r.failed}
	for _, st := range meas.steps {
		if st.measured {
			res.Attempted++
		}
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "FAILED:", e)
	}
	if e2e.err != nil {
		fmt.Fprintln(os.Stderr, "FAILED:", e2e.err)
	}
	e2e.print(fmt.Sprintf("end-to-end, %s, seed %d, %d requests over HTTP", wl.name, seed, res.Attempted))
	if !trace {
		res.Metrics = e2e.values()
		return res, nil
	}

	layers, err := replay(ctx, wl, seed, commit, setup, meas, out)
	if err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "FAILED: replay:", err)
		return res, nil
	}
	if layers.err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "FAILED:", layers.err)
	}
	layers.print(fmt.Sprintf("per layer, %s, seed %d", wl.name, seed))
	res.Metrics = layers.values()
	return res, nil
}

// replay sends the final server's setup and the measured requests
// through the in-process engine and then through the layers, and
// computes the per-layer metrics.
func replay(ctx context.Context, wl *workload, seed int64, commit string, setup, meas phase, out string) (*metricSet, error) {
	steps := append(append([]step(nil), setup.steps...), meas.steps...)
	refs := append(append([]obs(nil), setup.obs...), meas.obs...)
	all := phase{steps: steps, obs: refs}

	ee := newEngineExec(ctx, wl)
	eng, err := newRunner(wl, seed, ee, false).runSteps(steps, refs)
	if err != nil {
		return nil, fmt.Errorf("engine replay: %w", err)
	}
	storeHit, clusterHit := ee.e.Stats().HitRate(), ee.clusterHitRatio()
	_ = ee.close()
	runtime.GC()

	rec := newRecorder()
	nSetup := len(setup.steps)
	measured := func(op int) bool { return op > nSetup }
	if _, err := newRunner(wl, seed, newLayerExec(ctx, wl, rec), false).runSteps(steps, refs); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}

	in := layerInputs{http: all, eng: eng, storeHit: storeHit, clusterHit: clusterHit}
	for i, st := range steps {
		if st.measured {
			in.reqBytes += float64(refs[i].reqBytes)
			in.respBytes += float64(refs[i].respBytes)
			in.reqCount++
		}
	}
	in.reqBytes /= float64(in.reqCount)
	in.respBytes /= float64(in.reqCount)
	m := layerMetrics(spanIndex{spans: rec.spans, measured: measured}, in)

	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", wl.name, seed))
	if err := writeJSON(path, map[string]any{
		"workload":       wl.name,
		"seed":           seed,
		"env":            envStamp(wl, seed, commit),
		"setup_requests": nSetup,
		"self_time":      selfSummary(rec.spans, measured),
		"spans":          rec.spans,
	}); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "\nself time of the measured requests (spans: %s)\n", path)
	for _, row := range selfSummary(rec.spans, measured) {
		fmt.Fprintf(os.Stderr, "  %-22s %6d spans %12.1f ms self %12.1f ms total\n", row.Name, row.Count, row.SelfMS, row.TotalMS)
	}
	return m, nil
}

// kappaSteps is the Lanczos step count of the κ estimate.
const kappaSteps = 80

// kappa computes κ(L_G, L_P) of one served sparsifier with an exact
// factorization of L_P.
func kappa(ctx context.Context, k kappaInput) (float64, error) {
	edges := make([]graph.Edge, len(k.edges))
	for i, e := range k.edges {
		edges[i] = graph.Edge{U: int(e[0]), V: int(e[1]), W: e[2]}
	}
	p, err := graph.New(k.g.N, edges)
	if err != nil {
		return 0, err
	}
	shift := make([]float64, k.g.N)
	for i := range shift {
		shift[i] = k.shift
	}
	pen, err := core.NewPencil(k.g, p, shift)
	if err != nil {
		return 0, fmt.Errorf("kappa: %w", err)
	}
	return pen.CondNumberCtx(ctx, kappaSteps, 1)
}

// envStamp records what the figures depend on besides the code.
func envStamp(wl *workload, seed int64, commit string) map[string]any {
	stamp := map[string]any{
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu":          cpuModel(),
		"go":           runtime.Version(),
		"seed":         seed,
		"workload":     wl.name,
		"server_flags": strings.Join(wl.serverFlags(), " "),
		"why":          wl.why,
	}
	if commit != "" {
		stamp["commit"] = commit
	}
	return stamp
}

func stampEnv(wl *workload, seed int64, commit string) {
	raw, _ := json.Marshal(envStamp(wl, seed, commit))
	fmt.Fprintf(os.Stderr, "env: %s\n", raw)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

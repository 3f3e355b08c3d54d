package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// metric is one reported figure. Note says where a value came from when
// that is not the driver's own clock over the measured requests.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Note  string
}

type metricSet struct {
	list []metric
	err  error // first metric that could not be computed
}

func (m *metricSet) add(name, unit string, v float64, n int, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.list = append(m.list, metric{Name: name, Unit: unit, Value: v, N: n, Note: note})
}

func (m *metricSet) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// p50 adds the median of xs, which must hold minTimingSamples samples.
func (m *metricSet) p50(name string, xs []float64) {
	v, err := p50(xs)
	if err != nil {
		m.fail(fmt.Errorf("%s: %w", name, err))
	}
	m.add(name, "ms", v, len(xs), "")
}

// tail adds the highest percentile with tailBeyond samples above it.
func (m *metricSet) tail(name string, xs []float64) {
	t, err := tail(xs)
	if err != nil {
		m.fail(fmt.Errorf("%s: %w", name, err))
	}
	m.add(name, "ms", t.Value, t.N, fmt.Sprintf("p%.1f, %d samples above", t.Pct, tailBeyond))
}

func (m *metricSet) values() map[string]map[string]any {
	out := make(map[string]map[string]any, len(m.list))
	for _, x := range m.list {
		out[x.Name] = map[string]any{"value": x.Value, "unit": x.Unit}
	}
	return out
}

func (m *metricSet) print(title string) {
	fmt.Fprintf(os.Stderr, "\n%s\n", title)
	rows := append([]metric(nil), m.list...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	for _, x := range rows {
		n := ""
		if x.N > 0 {
			n = fmt.Sprintf("n=%d", x.N)
		}
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %-8s %-7s %s\n", x.Name, x.Value, x.Unit, n, x.Note)
	}
}

// e2eMetrics computes the end-to-end metrics of the HTTP run.
func e2eMetrics(p phase, setupS []float64, kappas []float64, failed int, rssMB float64) *metricSet {
	var lat [numOps][]float64
	var iters []float64
	var solveMS float64
	rhsDone := 0
	attempted := 0
	for i, st := range p.steps {
		if !st.measured {
			continue
		}
		attempted++
		o := p.obs[i]
		lat[st.kind] = append(lat[st.kind], o.ms)
		if st.kind == opSolve || st.kind == opBatch {
			solveMS += o.ms
			rhsDone += len(o.iters)
			for _, it := range o.iters {
				iters = append(iters, float64(it))
			}
		}
	}
	m := &metricSet{}
	m.add("setup_s", "s", median(setupS), len(setupS), "median of server starts: launch plus setup request latencies")
	m.p50("build_ms_p50", lat[opBuild])
	m.tail("build_ms_ptail", lat[opBuild])
	m.p50("update_ms_p50", lat[opPush])
	m.tail("update_ms_ptail", lat[opPush])
	m.p50("solve_ms_p50", lat[opSolve])
	m.tail("solve_ms_ptail", lat[opSolve])
	m.p50("batch_ms_p50", lat[opBatch])
	m.add("rhs_per_s", "1/s", float64(rhsDone)/(solveMS/1000), rhsDone, "right-hand sides over time spent in solve requests")
	m.add("pcg_iters_mean", "count", mean(iters), len(iters), "per right-hand side, tol 1e-6")
	m.add("kappa_mean", "ratio", mean(kappas), len(kappas), "distinct served sparsifiers, first measured ones")
	succ := 0.0
	if attempted > 0 {
		succ = float64(max(attempted-failed, 0)) / float64(attempted)
	}
	m.add("success_rate", "ratio", succ, attempted, "verified requests over attempted")
	m.add("server_peak_rss_mb", "MB", rssMB, 0, "VmHWM")
	return m
}

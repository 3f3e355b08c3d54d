package pg

import (
	"fmt"
	"math"
	"time"

	"repro/internal/chol"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// TransientOpts configures a transient run.
type TransientOpts struct {
	// Horizon is the simulated interval end (paper: 5 ns).
	Horizon float64
	// FixedStep is the direct engine's step (paper: 10 ps, the smallest
	// breakpoint distance); ≤0 derives it from the breakpoint lattice.
	FixedStep float64
	// MaxStep caps the iterative engine's varied step (paper: 200 ps).
	MaxStep float64
	// RTol is the PCG relative tolerance (paper: 1e-6).
	RTol float64
	// Probes lists nodes whose waveforms are recorded.
	Probes []int
}

func (o TransientOpts) withDefaults() TransientOpts {
	if o.Horizon == 0 {
		o.Horizon = 5e-9
	}
	if o.MaxStep == 0 {
		o.MaxStep = 200e-12
	}
	if o.RTol == 0 {
		o.RTol = 1e-6
	}
	return o
}

// Sample is one probed waveform point.
type Sample struct {
	T, V float64
}

// TransientResult reports a transient run.
type TransientResult struct {
	Steps     int
	TotalIter int     // PCG iterations summed over steps (0 for direct)
	AvgIter   float64 // the paper's N_a
	FactorNNZ int
	MemBytes  int64
	SimTime   time.Duration // the paper's T_tr (excludes grid synthesis)
	Final     []float64
	Probes    map[int][]Sample
}

func (r *TransientResult) recordProbes(t float64, x []float64, probes []int) {
	for _, p := range probes {
		r.Probes[p] = append(r.Probes[p], Sample{T: t, V: x[p]})
	}
}

// SimulateDirect runs fixed-step backward-Euler transient analysis with a
// direct sparse solver: one factorization of (G + C/h), then two triangular
// solves per step (the strategy of [19] the paper compares against).
func SimulateDirect(gr *Grid, opts TransientOpts) (*TransientResult, error) {
	o := opts.withDefaults()
	h := o.FixedStep
	if h <= 0 {
		h = gr.MinBreakpointGap(o.Horizon)
	}
	start := time.Now()

	a0 := gr.ConductanceMatrix()
	capOverH := make([]float64, gr.N)
	for i, c := range gr.Cap {
		capOverH[i] = c / h
	}
	ah := a0.AddDiag(capOverH)
	f, err := chol.New(ah, chol.Options{})
	if err != nil {
		return nil, fmt.Errorf("pg: factorizing transient matrix: %w", err)
	}
	// DC operating point: G x0 = u(0).
	fdc, err := chol.New(a0, chol.Options{})
	if err != nil {
		return nil, fmt.Errorf("pg: factorizing DC matrix: %w", err)
	}
	u := make([]float64, gr.N)
	gr.RHS(0, u)
	x := fdc.Solve(u)

	res := &TransientResult{
		FactorNNZ: f.NNZ(),
		MemBytes:  f.MemBytes() + fdc.MemBytes(),
		Final:     x,
		Probes:    map[int][]Sample{},
	}
	res.recordProbes(0, x, o.Probes)

	b := make([]float64, gr.N)
	y := make([]float64, gr.N)
	steps := int(math.Ceil(o.Horizon/h - 1e-9))
	for s := 1; s <= steps; s++ {
		t := float64(s) * h
		gr.RHS(t, u)
		for i := range b {
			b[i] = capOverH[i]*x[i] + u[i]
		}
		f.SolveToNoAlloc(x, b, y)
		res.Steps++
		res.recordProbes(t, x, o.Probes)
	}
	res.Final = x
	res.SimTime = time.Since(start)
	return res, nil
}

// SimulateIterative runs varied-step backward-Euler transient analysis with
// PCG: steps advance to the next waveform breakpoint but never more than
// MaxStep, and every solve is preconditioned by the factor built once
// during DC analysis (typically of a sparsified conductance matrix).
//
// precond is the Cholesky factorization of the preconditioner matrix
// (e.g. chol.New of Grid.SparsifiedConductance(sparsifier)); pass a factor
// of the full conductance matrix to get an exact-preconditioner reference.
func SimulateIterative(gr *Grid, precond *chol.Factor, opts TransientOpts) (*TransientResult, error) {
	o := opts.withDefaults()
	if precond == nil {
		return nil, fmt.Errorf("pg: SimulateIterative requires a preconditioner factor")
	}
	start := time.Now()

	a0 := gr.ConductanceMatrix()
	pre := solver.NewCholPrecond(precond)

	// DC operating point via PCG with the same preconditioner.
	u := make([]float64, gr.N)
	gr.RHS(0, u)
	x := make([]float64, gr.N)
	dc := solver.PCG(a0, u, x, pre, solver.Options{Tol: o.RTol, MaxIter: 20000})
	if !dc.Converged {
		return nil, fmt.Errorf("pg: DC PCG failed to converge (res %.3g)", dc.RelRes)
	}

	res := &TransientResult{
		FactorNNZ: precond.NNZ(),
		MemBytes:  precond.MemBytes(),
		Probes:    map[int][]Sample{},
	}
	res.recordProbes(0, x, o.Probes)

	// Cache (G + C/h) per distinct step size; the breakpoint lattice keeps
	// the set of distinct h values small.
	ahCache := map[int64]*sparse.CSC{}
	scaled := make([]float64, gr.N)
	matFor := func(h float64) *sparse.CSC {
		key := int64(math.Round(h * 1e15)) // femtosecond resolution
		if m, ok := ahCache[key]; ok {
			return m
		}
		for i, c := range gr.Cap {
			scaled[i] = c / h
		}
		m := a0.AddDiag(scaled)
		ahCache[key] = m
		return m
	}

	bps := gr.Breakpoints(o.Horizon)
	b := make([]float64, gr.N)
	t := 0.0
	bi := 0
	for t < o.Horizon-1e-18 {
		next := t + o.MaxStep
		for bi < len(bps) && bps[bi] <= t+1e-18 {
			bi++
		}
		if bi < len(bps) && bps[bi] < next {
			next = bps[bi]
		}
		if next > o.Horizon {
			next = o.Horizon
		}
		h := next - t
		ah := matFor(h)
		gr.RHS(next, u)
		for i := range b {
			b[i] = gr.Cap[i]/h*x[i] + u[i]
		}
		// Warm start from the previous time point (x already holds it).
		r := solver.PCG(ah, b, x, pre, solver.Options{Tol: o.RTol, MaxIter: 20000})
		if !r.Converged {
			return nil, fmt.Errorf("pg: PCG failed at t=%.3gs (res %.3g)", next, r.RelRes)
		}
		res.Steps++
		res.TotalIter += r.Iterations
		t = next
		res.recordProbes(t, x, o.Probes)
	}
	if res.Steps > 0 {
		res.AvgIter = float64(res.TotalIter) / float64(res.Steps)
	}
	res.Final = x
	res.SimTime = time.Since(start)
	return res, nil
}

// WorstProbe returns the node with the largest DC IR drop (VDD net) or the
// largest ground bounce (ground net): the natural node to plot in Fig. 1.
func WorstProbe(gr *Grid, x []float64) int {
	worst := 0
	for i, v := range x {
		if gr.Cfg.GroundNet {
			if v > x[worst] {
				worst = i
			}
		} else if v < x[worst] {
			worst = i
		}
	}
	return worst
}

// MaxAbsDiff returns the maximum pointwise |a−b| between two waveforms
// sampled at identical times is NOT required: it compares by linear
// interpolation of b onto a's sample times (the direct and iterative
// engines use different step grids).
func MaxAbsDiff(a, b []Sample) float64 {
	var worst float64
	j := 0
	for _, s := range a {
		for j+1 < len(b) && b[j+1].T <= s.T {
			j++
		}
		var v float64
		if j+1 < len(b) && b[j+1].T > b[j].T {
			frac := (s.T - b[j].T) / (b[j+1].T - b[j].T)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			v = b[j].V + frac*(b[j+1].V-b[j].V)
		} else {
			v = b[j].V
		}
		if d := math.Abs(s.V - v); d > worst {
			worst = d
		}
	}
	return worst
}

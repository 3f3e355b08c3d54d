package main

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/tree"
)

// obs is what one request returned, as far as the driver compares it.
type obs struct {
	key       string
	edges     int // sparsifier edge count of a build
	cached    bool
	sharded   bool
	lgPatched bool
	reused    int   // Schwarz factors an update adopted from its base
	iters     []int // per right-hand side
	ms        float64

	// HTTP only: the payload verified off the clock.
	sparsifier          [][3]float64
	xs                  [][]float64
	solveErr            error
	reqBytes, respBytes int
}

// executor runs requests against one implementation: the server over
// HTTP, the engine in-process, or the layers one by one. ref is the HTTP
// run's observation of the same request (nil during the HTTP run).
type executor interface {
	build(g *graph.Graph, ref *obs) (obs, error)
	push(key string, d graph.Delta, ref *obs) (obs, error)
	solve(key string, bs [][]float64, ref *obs) (obs, error)
	close() error
}

// runner walks a step sequence, keeping the driver's model of the graph
// each artifact should describe.
type runner struct {
	wl     *workload
	w      *world
	ex     executor
	key    string             // artifact currently served
	shifts map[string]float64 // artifact key → regularization shift
	pushes int
	// session is the current step's stream session; parked holds the
	// graph model and artifact key of the others.
	session int
	parked  map[int]parkedSession

	verify bool // check responses (the HTTP run)
	failed int
	errs   []string
	kappa  []kappaInput // measured builds whose κ is computed at the end
	seen   map[string]bool
}

type parkedSession struct {
	cur *model
	key string
}

type kappaInput struct {
	g     *graph.Graph
	edges [][3]float64
	shift float64
}

// maxKappa bounds how many distinct served sparsifiers κ is computed
// for; each costs a factorization and a Lanczos run.
const maxKappa = 8

func newRunner(wl *workload, seed int64, ex executor, verify bool) *runner {
	return &runner{wl: wl, w: &world{seed: seed}, ex: ex, shifts: map[string]float64{},
		verify: verify, seen: map[string]bool{}, parked: map[int]parkedSession{}}
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// run executes one step and returns its observation. Lazy edits are
// drawn here and written back into st so replays send the same edit.
func (r *runner) run(st *step, ref *obs) (obs, error) {
	if st.session != r.session {
		r.parked[r.session] = parkedSession{cur: r.w.cur, key: r.key}
		p := r.parked[st.session]
		r.w.cur, r.key, r.session = p.cur, p.key, st.session
	}
	switch st.kind {
	case opBuild:
		return r.build(st, ref)
	case opPush:
		if isLazy(st.delta) {
			st.delta = r.wl.edit(r.w, r.pushes, r.w.rng(1_000_000+r.pushes))
		}
		r.pushes++
		o, err := r.ex.push(r.key, st.delta, ref)
		if err != nil {
			return o, err
		}
		r.w.cur.apply(st.delta)
		switch {
		case o.cached:
			s, ok := r.shifts[o.key]
			if !ok {
				return o, fmt.Errorf("push reports cached artifact %s the run never produced", o.key)
			}
			r.w.cur.shift = s
		case o.lgPatched:
			// A patched pencil keeps its base's shift.
		default:
			r.w.cur.shift = r.w.cur.defaultShift()
		}
		r.shifts[o.key] = r.w.cur.shift
		r.key = o.key
		return o, nil
	default:
		width := 1
		if st.kind == opBatch {
			width = batchWidth
		}
		bs := make([][]float64, width)
		for k := range bs {
			bs[k] = rhs(r.w.cur.n, st.rhsSeed+int64(k))
		}
		o, err := r.ex.solve(r.key, bs, ref)
		if err != nil || !r.verify {
			return o, err
		}
		if o.solveErr != nil {
			r.fail("%s on %s: %v", opNames[st.kind], r.key, o.solveErr)
		}
		for k, x := range o.xs {
			if len(x) != r.w.cur.n {
				r.fail("%s on %s: x has length %d, graph has %d vertices", opNames[st.kind], r.key, len(x), r.w.cur.n)
				continue
			}
			// The driver's residual may exceed the server's recursive one
			// by rounding; an artifact missing an edit misses by orders of
			// magnitude.
			if res := r.w.cur.relResidual(bs[k], x); !(res <= 2*solveTol) {
				r.fail("%s on %s: driver residual %.3g against the client's graph", opNames[st.kind], r.key, res)
			}
		}
		o.xs = nil
		return o, nil
	}
}

func (r *runner) build(st *step, ref *obs) (obs, error) {
	var g *graph.Graph
	side := 0
	if st.fresh != nil {
		g, side = st.fresh()
	} else {
		g = r.w.cur.graph()
	}
	prevKey := r.key
	o, err := r.ex.build(g, ref)
	if err != nil {
		return o, err
	}
	if st.fresh != nil {
		r.w.cur = newModel(g, side)
	}
	if s, ok := r.shifts[o.key]; ok {
		r.w.cur.shift = s
	} else {
		r.w.cur.shift = r.w.cur.defaultShift()
		r.shifts[o.key] = r.w.cur.shift
	}
	r.key = o.key
	if !r.verify {
		return o, nil
	}
	if st.fresh == nil && (!o.cached || o.key != prevKey) {
		r.fail("repeat POST of the current graph returned key %s cached=%v, want the served artifact %s", o.key, o.cached, prevKey)
	}
	if err := r.w.cur.checkSparsifier(o.sparsifier); err != nil {
		r.fail("build %s: %v", o.key, err)
	}
	if !o.sharded {
		// A monolithic build keeps the maximum-effective-weight spanning
		// tree of Algorithm 2 whole.
		t, err := tree.MEWST(g)
		if err != nil {
			return o, err
		}
		tedges := make([]graph.Edge, len(t.EdgeIdx))
		for i, e := range t.EdgeIdx {
			tedges[i] = g.Edges[e]
		}
		if err := containsTree(tedges, o.sparsifier); err != nil {
			r.fail("build %s: %v", o.key, err)
		}
	}
	if st.measured && !r.seen[o.key] && len(r.kappa) < maxKappa {
		r.seen[o.key] = true
		r.kappa = append(r.kappa, kappaInput{g: g, edges: o.sparsifier, shift: r.w.cur.shift})
	}
	o.sparsifier = nil
	return o, nil
}

// maxOpenStreams bounds the stream sessions an executor keeps open; the
// least recently used one is closed first.
const maxOpenStreams = 4

// sessions tracks an executor's open stream sessions by the key of the
// artifact each currently serves.
type sessions[T any] struct {
	byKey map[string]T
	order []string // least recently used first
}

func (s *sessions[T]) get(key string) (T, bool) {
	v, ok := s.byKey[key]
	return v, ok
}

// put records v as serving key and returns the sessions to close.
func (s *sessions[T]) put(key string, v T) []T {
	if s.byKey == nil {
		s.byKey = map[string]T{}
	}
	s.drop(key)
	s.byKey[key] = v
	s.order = append(s.order, key)
	var evicted []T
	for len(s.order) > maxOpenStreams {
		evicted = append(evicted, s.byKey[s.order[0]])
		delete(s.byKey, s.order[0])
		s.order = s.order[1:]
	}
	return evicted
}

// move re-keys the session serving oldKey after a push produced newKey.
func (s *sessions[T]) move(oldKey, newKey string) {
	if v, ok := s.byKey[oldKey]; ok {
		s.drop(oldKey)
		s.put(newKey, v)
	}
}

func (s *sessions[T]) drop(key string) {
	delete(s.byKey, key)
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

func (s *sessions[T]) all() []T {
	out := make([]T, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, s.byKey[k])
	}
	return out
}

// phase is one pass of a step sequence with its observations.
type phase struct {
	steps []step
	obs   []obs
}

// runSteps executes steps in order, stopping at the first transport or
// protocol error.
func (r *runner) runSteps(steps []step, refs []obs) (phase, error) {
	p := phase{steps: steps}
	for i := range steps {
		var ref *obs
		if refs != nil {
			ref = &refs[i]
		}
		o, err := r.run(&steps[i], ref)
		if err != nil {
			return p, fmt.Errorf("step %d (%s): %w", i, opNames[steps[i].kind], err)
		}
		p.obs = append(p.obs, o)
	}
	return p, nil
}

// runMeasured runs whole cycles until the run has lasted `seconds` and
// every request kind has its minimum sample count.
func (r *runner) runMeasured(seconds float64, minSamples [numOps]int, deadline time.Time) (phase, error) {
	var p phase
	start := time.Now()
	counts := [numOps]int{}
	for i := 0; ; i++ {
		enough := time.Since(start).Seconds() >= seconds
		for k := opKind(0); k < numOps; k++ {
			if counts[k] < minSamples[k] {
				enough = false
			}
		}
		if enough {
			return p, nil
		}
		if time.Now().After(deadline) {
			return p, fmt.Errorf("measured phase passed its deadline after %d cycles (counts %v)", i, counts)
		}
		steps := r.wl.cycle(r.w, i)
		q, err := r.runSteps(steps, nil)
		p.steps = append(p.steps, q.steps...)
		p.obs = append(p.obs, q.obs...)
		if err != nil {
			return p, err
		}
		for _, st := range steps {
			counts[st.kind]++
		}
	}
}

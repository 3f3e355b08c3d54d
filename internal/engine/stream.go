package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
)

// Stream-session defaults; see the matching Options fields.
const (
	DefaultStreamMaxSessions = 16
	DefaultStreamStaleness   = 8
	DefaultStreamQueueDepth  = 4096
)

// ErrStreamBackpressure is returned by Stream.Push when the session's
// pending work exceeds the staleness or queue-depth bound: deltas are
// arriving faster than rebuilds retire them, and accepting more would
// only grow the served artifact's lag unboundedly. Servers map it to
// 429; clients back off or batch.
var ErrStreamBackpressure = errors.New("engine: stream backpressure: deltas outrun rebuilds")

// ErrStreamClosed is returned by operations on a closed stream session.
var ErrStreamClosed = errors.New("engine: stream closed")

// ErrStreamLimit is returned by StreamOpen when the session cap is
// reached (or streaming is disabled).
var ErrStreamLimit = errors.New("engine: stream session limit reached")

// ErrBadDelta wraps push-time validation failures — endpoints out of
// range, self-loops, non-positive or non-finite weights, removals of
// absent edges or of one edge twice —
// which are the client's delta, not the engine's state. Servers map it
// to 400.
var ErrBadDelta = errors.New("engine: bad stream delta")

// Stream is a long-lived update session against an evolving graph: it
// retains the current graph in memory (no per-update reconstruction from
// the pencil), merges queued deltas semantically — last set wins,
// remove-then-set resurrects — and drains them through the incremental
// fast path one rebuild at a time. Pushes that arrive while a rebuild is
// in flight coalesce into the next one; the staleness and queue-depth
// bounds turn sustained overload into explicit backpressure instead of
// unbounded lag. Safe for concurrent use.
type Stream struct {
	e  *Engine
	id string

	mu      sync.Mutex
	cond    *sync.Cond // broadcast after every applied rebuild
	cur     *Artifact
	curG    *graph.Graph
	baseKey string

	// Pending composite delta, keyed by normalized (u < v) endpoints.
	// setW holds the final weight each pending edge should end at;
	// removes marks edges of curG that must go away. An edge in both is
	// a resurrection (removed, then re-added at setW's weight).
	setW    map[[2]int]float64
	removes map[[2]int]bool

	pendingPushes int   // accepted pushes not yet applied
	pushes        int64 // accepted pushes, total
	applied       int64 // pushes whose rebuild has completed
	draining      bool
	closed        bool
	failed        error // sticky rebuild failure; session must be closed

	// Telemetry for the stats endpoint.
	updates      int64 // rebuilds applied
	coalesced    int64 // pushes merged into an already-pending rebuild
	backpressure int64
	last         StreamUpdateInfo
}

// StreamUpdateInfo describes the most recent rebuild a session applied —
// the per-update reuse report the ISSUE's bounded-staleness contract is
// judged by.
type StreamUpdateInfo struct {
	Key string `json:"artifact_key"`
	// Cached is true when the composite delta produced a graph whose
	// artifact was already resident (e.g. a trip/reclose round-trip back
	// to a previously-built topology): the rebuild cost nothing at all.
	Cached          bool `json:"cached"`
	ClustersReused  int  `json:"clusters_reused"`
	DirtyClusters   int  `json:"dirty_clusters"`
	StitchLocalized bool `json:"stitch_localized"`
	LGPatched       bool `json:"lg_patched"`
	LPPatched       bool `json:"lp_patched"`
	// RefactorRows counts the rows of the monolithic factor the rebuild
	// recomputed under the base ordering; Reordered reports that the
	// factor's fill passed the reorder bound and L_P was ordered afresh.
	RefactorRows int     `json:"refactor_rows"`
	Reordered    bool    `json:"reordered"`
	PatchMS      float64 `json:"patch_ms"`
	AssembleMS   float64 `json:"assemble_ms"`
	TotalMS      float64 `json:"total_ms"`
	Edits        int     `json:"edits"` // edge edits the rebuild absorbed
	PushesMerged int     `json:"pushes_merged"`
}

// StreamStats is a session snapshot for the stats endpoint.
type StreamStats struct {
	ID            string           `json:"id"`
	BaseKey       string           `json:"base_key"`
	CurrentKey    string           `json:"current_key"`
	Vertices      int              `json:"vertices"`
	Edges         int              `json:"edges"`
	Pushes        int64            `json:"pushes"`
	Updates       int64            `json:"updates"`
	Coalesced     int64            `json:"coalesced"`
	Backpressure  int64            `json:"backpressure"`
	PendingPushes int              `json:"pending_pushes"`
	PendingEdits  int              `json:"pending_edits"`
	Closed        bool             `json:"closed"`
	Failed        string           `json:"failed,omitempty"`
	Last          StreamUpdateInfo `json:"last_update"`
}

// StreamOpen creates a session whose initial state is the artifact under
// baseKey (which must be resident, like Update's base). The session
// retains the materialized graph, so per-update cost starts at the delta
// — not at an O(nnz) graph reconstruction.
func (e *Engine) StreamOpen(baseKey string) (*Stream, error) {
	maxSessions := e.opts.StreamMaxSessions
	if maxSessions == 0 {
		maxSessions = DefaultStreamMaxSessions
	}
	if maxSessions < 0 {
		return nil, ErrStreamLimit
	}
	base, ok := e.store.Get(baseKey)
	if !ok {
		return nil, fmt.Errorf("%w: %q (evicted or never built)", ErrUnknownKey, baseKey)
	}
	s := &Stream{
		e:       e,
		cur:     base,
		curG:    base.Handle.BaseGraph(),
		baseKey: baseKey,
		setW:    make(map[[2]int]float64),
		removes: make(map[[2]int]bool),
	}
	s.cond = sync.NewCond(&s.mu)
	e.streamMu.Lock()
	if len(e.streams) >= maxSessions {
		e.streamMu.Unlock()
		return nil, fmt.Errorf("%w: %d sessions open", ErrStreamLimit, maxSessions)
	}
	e.streamSeq++
	s.id = fmt.Sprintf("s%d", e.streamSeq)
	e.streams[s.id] = s
	e.streamMu.Unlock()
	return s, nil
}

// StreamGet returns an open session by id.
func (e *Engine) StreamGet(id string) (*Stream, bool) {
	e.streamMu.Lock()
	s, ok := e.streams[id]
	e.streamMu.Unlock()
	return s, ok
}

// StreamStats snapshots every open session.
func (e *Engine) StreamStats() []StreamStats {
	e.streamMu.Lock()
	ss := make([]*Stream, 0, len(e.streams))
	for _, s := range e.streams {
		ss = append(ss, s)
	}
	e.streamMu.Unlock()
	out := make([]StreamStats, len(ss))
	for i, s := range ss {
		out[i] = s.Stats()
	}
	return out
}

// ID returns the session identifier.
func (s *Stream) ID() string { return s.id }

// Stats snapshots the session.
func (s *Stream) Stats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StreamStats{
		ID:            s.id,
		BaseKey:       s.baseKey,
		Pushes:        s.pushes,
		Updates:       s.updates,
		Coalesced:     s.coalesced,
		Backpressure:  s.backpressure,
		PendingPushes: s.pendingPushes,
		PendingEdits:  len(s.setW) + len(s.removes),
		Closed:        s.closed,
		Last:          s.last,
	}
	if s.cur != nil {
		st.CurrentKey = s.cur.Key
	}
	if s.curG != nil {
		st.Vertices = s.curG.N
		st.Edges = s.curG.M()
	}
	if s.failed != nil {
		st.Failed = s.failed.Error()
	}
	return st
}

// Current returns the latest applied artifact and how many accepted
// pushes it lags behind the stream head (0 = fully caught up).
func (s *Stream) Current() (*Artifact, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur, s.pendingPushes
}

// Push validates delta d against the session's current state and queues
// it for the next rebuild, merging with any deltas already pending. It
// returns immediately; use Wait (or Push's returned generation) for
// synchronous semantics. The returned generation is the accepted push
// count; Wait(gen) blocks until that push's rebuild has been applied.
//
// Push fails with ErrStreamBackpressure when the staleness bound
// (pending pushes) or the queue depth (pending edge edits) would be
// exceeded, with ErrStreamClosed after Close, and with the sticky
// rebuild error after a failed rebuild (the session is then dead; close
// it and open a new one from a valid base).
func (s *Stream) Push(d graph.Delta) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrStreamClosed
	}
	if s.failed != nil {
		return 0, s.failed
	}

	staleness := s.e.opts.StreamStaleness
	if staleness <= 0 {
		staleness = DefaultStreamStaleness
	}
	depth := s.e.opts.StreamQueueDepth
	if depth <= 0 {
		depth = DefaultStreamQueueDepth
	}
	if s.pendingPushes >= staleness || len(s.setW)+len(s.removes)+len(d.Set)+len(d.Remove) > depth {
		s.backpressure++
		s.e.c.streamBackpressure.Add(1)
		return 0, fmt.Errorf("%w (%d pushes, %d edits pending)",
			ErrStreamBackpressure, s.pendingPushes, len(s.setW)+len(s.removes))
	}

	// Validate against current state + pending edits BEFORE mutating, so
	// a bad delta rejects atomically. Semantics mirror graph.Delta.Apply:
	// removals of absent edges, removing one edge twice, and weights that
	// fail graph.ValidWeight are errors.
	n := s.curG.N
	exists := func(u, v int) bool {
		if s.setW[[2]int{u, v}] > 0 {
			return true
		}
		if s.removes[[2]int{u, v}] {
			return false
		}
		_, ok := s.curG.EdgeBetween(u, v)
		return ok
	}
	type rm struct {
		key   [2]int
		inCur bool
	}
	rms := make([]rm, 0, len(d.Remove))
	removing := make(map[[2]int]bool, len(d.Remove))
	for _, r := range d.Remove {
		u, v := normPair(r[0], r[1])
		if u < 0 || v >= n || u == v {
			return 0, fmt.Errorf("%w: remove (%d,%d): invalid endpoints for %d vertices", ErrBadDelta, r[0], r[1], n)
		}
		if !exists(u, v) {
			return 0, fmt.Errorf("%w: remove (%d,%d): edge does not exist", ErrBadDelta, r[0], r[1])
		}
		if removing[[2]int{u, v}] {
			return 0, fmt.Errorf("%w: removes edge (%d,%d) twice", ErrBadDelta, r[0], r[1])
		}
		removing[[2]int{u, v}] = true
		_, inCur := s.curG.EdgeBetween(u, v)
		rms = append(rms, rm{key: [2]int{u, v}, inCur: inCur})
	}
	for _, ed := range d.Set {
		u, v := normPair(ed.U, ed.V)
		if u < 0 || v >= n || u == v {
			return 0, fmt.Errorf("%w: set (%d,%d): invalid endpoints for %d vertices", ErrBadDelta, ed.U, ed.V, n)
		}
		if !graph.ValidWeight(ed.W) {
			return 0, fmt.Errorf("%w: set (%d,%d): invalid weight %g", ErrBadDelta, ed.U, ed.V, ed.W)
		}
	}

	// Merge. Removals first, then sets — the same order Delta.Apply uses
	// within one delta, which makes sequential composition associative.
	for _, r := range rms {
		delete(s.setW, r.key)
		if r.inCur {
			s.removes[r.key] = true
		}
	}
	for _, ed := range d.Set {
		u, v := normPair(ed.U, ed.V)
		s.setW[[2]int{u, v}] = ed.W
	}

	s.pushes++
	s.pendingPushes++
	if s.draining {
		// This push rides a rebuild that is already owed; it will be
		// merged with others rather than paying its own.
		s.coalesced++
		s.e.c.streamCoalesced.Add(1)
	} else {
		s.draining = true
		go s.drain()
	}
	return s.pushes, nil
}

// Wait blocks until the rebuild covering push generation gen has been
// applied (or the session fails/closes), returning the artifact current
// at that point.
func (s *Stream) Wait(ctx context.Context, gen int64) (*Artifact, error) {
	done := make(chan struct{})
	var art *Artifact
	var err error
	go func() {
		defer close(done)
		s.mu.Lock()
		defer s.mu.Unlock()
		for s.applied < gen && s.failed == nil && !s.closed {
			s.cond.Wait()
		}
		switch {
		case s.failed != nil:
			err = s.failed
		case s.applied < gen && s.closed:
			err = ErrStreamClosed
		default:
			art = s.cur
		}
	}()
	select {
	case <-done:
		return art, err
	case <-ctx.Done():
		// The waiter gives up; the rebuild itself keeps running.
		return nil, ctx.Err()
	}
}

// drain applies pending composite deltas one rebuild at a time until the
// queue is empty. It owns s.draining; exactly one drain goroutine runs
// per session at any moment.
func (s *Stream) drain() {
	for {
		s.mu.Lock()
		if s.closed || s.failed != nil || (len(s.setW) == 0 && len(s.removes) == 0) {
			s.draining = false
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		d := graph.Delta{}
		for k := range s.removes {
			d.Remove = append(d.Remove, k)
		}
		for k, w := range s.setW {
			d.Set = append(d.Set, graph.Edge{U: k[0], V: k[1], W: w})
		}
		edits := len(d.Set) + len(d.Remove)
		merged := s.pendingPushes
		covered := s.pushes
		s.setW = make(map[[2]int]float64)
		s.removes = make(map[[2]int]bool)
		s.pendingPushes = 0
		base, curG := s.cur, s.curG
		s.mu.Unlock()

		start := time.Now()
		p, err := d.ApplyPatch(curG)
		var art *Artifact
		var cached bool
		if err == nil {
			// The rebuild is detached from any request context by design:
			// accepted pushes must land even if every waiter left.
			art, cached, err = s.e.updateFrom(context.Background(), base, p)
		}
		total := time.Since(start)

		s.mu.Lock()
		if err != nil {
			// Accepted pushes that cannot be applied poison the session:
			// the served artifact would silently diverge from the pushed
			// stream otherwise. Clients observe the error on the next call.
			s.failed = fmt.Errorf("engine: stream %s rebuild: %w", s.id, err)
			s.draining = false
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		s.cur = art
		s.curG = p.G
		s.updates++
		s.applied = covered
		s.e.c.streamUpdates.Add(1)
		s.e.c.streamLatency.Observe(total)
		info := StreamUpdateInfo{
			Key:          art.Key,
			Cached:       cached,
			TotalMS:      float64(total) / float64(time.Millisecond),
			Edits:        edits,
			PushesMerged: merged,
		}
		if st := art.Handle.ShardStats(); st != nil && !cached {
			info.ClustersReused = st.ClustersReused
			info.DirtyClusters = st.DirtyClusters
			info.StitchLocalized = st.StitchLocalized
		}
		if up := art.Handle.UpdateStats(); up != nil && !cached {
			info.LGPatched = up.LGPatched
			info.LPPatched = up.LPPatched
			info.RefactorRows = up.RefactorRows
			info.Reordered = up.Reordered
			info.PatchMS = float64(up.PatchTime) / float64(time.Millisecond)
			info.AssembleMS = float64(up.AssembleTime) / float64(time.Millisecond)
		}
		s.last = info
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// Close ends the session. Pending (unapplied) pushes are discarded; the
// already-applied artifacts stay in the engine store.
func (s *Stream) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.e.streamMu.Lock()
	delete(s.e.streams, s.id)
	s.e.streamMu.Unlock()
}

func normPair(u, v int) (int, int) {
	if u > v {
		return v, u
	}
	return u, v
}

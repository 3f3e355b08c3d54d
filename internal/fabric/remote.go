package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shard"
	"repro/internal/tdigest"
)

// Defaults for Options' zero values.
const (
	// DefaultTimeout bounds one remote attempt. Cluster builds are
	// seconds-scale at the default shard sizing, so a minute means
	// "this worker is not coming back", not "the cluster is large".
	DefaultTimeout = time.Minute
	// DefaultRetries is how many additional attempts (each on the next
	// worker in rendezvous order) follow a failed first dispatch.
	DefaultRetries = 2
	// DefaultBackoff is the base delay before a retry; it doubles per
	// attempt. Kept short: the retry lands on a different worker, so
	// this is pacing, not recovery waiting.
	DefaultBackoff = 50 * time.Millisecond
	// DefaultFailAfter is the consecutive-failure count that marks a
	// worker down; DefaultProbeAfter how long it stays skipped before
	// the next dispatch probes it again.
	DefaultFailAfter  = 3
	DefaultProbeAfter = 15 * time.Second
)

// Options tunes the Remote dispatcher. Zero values select the defaults
// above; HedgeAfter and Retries use the package convention "0 = default,
// negative = disabled".
type Options struct {
	// Timeout is the per-attempt deadline (primary and hedge share it:
	// the attempt as a whole is abandoned when it passes).
	Timeout time.Duration
	// Retries is the number of additional attempts after the first,
	// each against the next-ranked worker with exponential backoff
	// (0 = DefaultRetries, negative = no retries).
	Retries int
	// Backoff is the base retry delay, doubling per attempt.
	Backoff time.Duration
	// HedgeAfter launches a duplicate request against the next-ranked
	// worker when the primary has not answered within this delay; the
	// first result wins and the loser's request is canceled. 0 disables
	// hedging (stragglers then cost up to Timeout before the retry
	// path takes over).
	HedgeAfter time.Duration
	// FailAfter consecutive failures mark a worker down; it is skipped
	// by placement until ProbeAfter has passed.
	FailAfter  int
	ProbeAfter time.Duration
	// Client overrides the HTTP client (tests; custom transports).
	Client *http.Client
	// Fallback handles cluster builds the fleet could not: every worker
	// down, or retries exhausted. Defaults to Local — the build
	// completes in-process rather than failing, and the degradation is
	// visible in Stats.FallbackLocal.
	Fallback shard.Dispatcher
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	switch {
	case o.Retries == 0:
		o.Retries = DefaultRetries
	case o.Retries < 0:
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = DefaultBackoff
	}
	if o.HedgeAfter < 0 {
		o.HedgeAfter = 0
	}
	if o.FailAfter <= 0 {
		o.FailAfter = DefaultFailAfter
	}
	if o.ProbeAfter <= 0 {
		o.ProbeAfter = DefaultProbeAfter
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Fallback == nil {
		o.Fallback = Local{}
	}
	return o
}

// member is the coordinator's view of one fleet worker.
type member struct {
	url string

	dispatched   atomic.Int64
	retried      atomic.Int64
	hedged       atomic.Int64
	hedgedWasted atomic.Int64
	failed       atomic.Int64

	mu        sync.Mutex
	consec    int
	downUntil time.Time
	lastErr   string
	lastErrAt time.Time
}

func (m *member) up(now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !now.Before(m.downUntil) || m.downUntil.IsZero()
}

func (m *member) noteSuccess() {
	m.mu.Lock()
	m.consec = 0
	m.downUntil = time.Time{}
	m.mu.Unlock()
}

func (m *member) noteFailure(err error, failAfter int, probeAfter time.Duration) {
	m.failed.Add(1)
	m.mu.Lock()
	m.consec++
	if m.consec >= failAfter {
		m.downUntil = time.Now().Add(probeAfter)
	}
	m.lastErr = err.Error()
	m.lastErrAt = time.Now()
	m.mu.Unlock()
}

// Remote is the fleet-backed shard.Dispatcher: it ships cluster payloads
// to workers over HTTP/JSON with rendezvous-hashed placement on the
// cluster fingerprint, per-attempt deadlines, bounded retries with
// backoff, hedged dispatch for stragglers, and graceful degradation to
// the in-process fallback. It only builds clusters: preconditioner
// factors are always computed in-process by the coordinator that solves
// with them. Safe for concurrent use.
type Remote struct {
	opts Options

	memMu   sync.RWMutex
	members []*member

	// Membership epochs for the workers' peer cache fetch: every rank
	// snapshot of the up-set is compared against the previous one, and a
	// change bumps the epoch and retains the old up-set — the set the
	// previous owner of a moved key is computed from.
	epochMu sync.Mutex
	epoch   int64
	curUp   []string // sorted up-set of the current epoch
	prevUp  []string // sorted up-set of the previous epoch

	remoteOK    atomic.Int64
	fallbacks   atomic.Int64
	peerFetches atomic.Int64
	peerHits    atomic.Int64
	latency     tdigest.Recorder
}

// NewRemote creates a dispatcher over the given worker base URLs
// (e.g. "http://10.0.0.7:8372"); trailing slashes are trimmed, empty
// entries dropped. An empty fleet is legal: every dispatch degrades to
// the fallback — convenient for configuration that flips the fleet on
// and off without changing call sites.
func NewRemote(urls []string, opts Options) *Remote {
	r := &Remote{opts: opts.withDefaults()}
	r.members = makeMembers(urls, nil)
	return r
}

// makeMembers normalizes worker URLs into member records, adopting an
// existing record (with its counters and health state) when the URL
// survives from old.
func makeMembers(urls []string, old []*member) []*member {
	prev := make(map[string]*member, len(old))
	for _, m := range old {
		prev[m.url] = m
	}
	var out []*member
	seen := make(map[string]bool, len(urls))
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		if m, ok := prev[u]; ok {
			out = append(out, m)
		} else {
			out = append(out, &member{url: u})
		}
	}
	return out
}

// SetWorkers replaces the fleet membership (join/leave events from an
// operator or a service-discovery loop). Members whose URL survives keep
// their counters and health state. The membership epoch bumps on the
// next dispatch that observes the changed up-set, which is what lets
// workers peer-fetch moved keys from their previous owner.
func (r *Remote) SetWorkers(urls []string) {
	r.memMu.Lock()
	r.members = makeMembers(urls, r.members)
	r.memMu.Unlock()
}

// Workers returns the configured worker URLs (diagnostics).
func (r *Remote) Workers() []string {
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	out := make([]string, len(r.members))
	for i, m := range r.members {
		out[i] = m.url
	}
	return out
}

// Stats snapshots the fleet telemetry.
func (r *Remote) Stats() *Stats {
	now := time.Now()
	s := &Stats{
		RemoteClusters: r.remoteOK.Load(),
		FallbackLocal:  r.fallbacks.Load(),
		PeerFetches:    r.peerFetches.Load(),
		PeerHits:       r.peerHits.Load(),
	}
	r.epochMu.Lock()
	s.MembershipEpoch = r.epoch
	r.epochMu.Unlock()
	r.memMu.RLock()
	members := r.members
	r.memMu.RUnlock()
	for _, m := range members {
		m.mu.Lock()
		wh := WorkerHealth{
			URL:          m.url,
			Up:           m.downUntil.IsZero() || !now.Before(m.downUntil),
			Dispatched:   m.dispatched.Load(),
			Retried:      m.retried.Load(),
			Hedged:       m.hedged.Load(),
			HedgedWasted: m.hedgedWasted.Load(),
			Failed:       m.failed.Load(),
			LastError:    m.lastErr,
		}
		if !m.lastErrAt.IsZero() {
			wh.LastErrorUnixMS = m.lastErrAt.UnixMilli()
		}
		m.mu.Unlock()
		s.Workers = append(s.Workers, wh)
	}
	l := r.latency.Snapshot()
	s.MeanLatencyMS, s.P50LatencyUS, s.P95LatencyUS, s.P99LatencyUS = l.MeanMS, l.P50US, l.P95US, l.P99US
	return s
}

// fnv1a64 hashes a string with 64-bit FNV-1a (the repo's fingerprint
// idiom; no dependency on hash/fnv allocations).
func fnv1a64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// rank orders the currently-up workers by rendezvous (highest-random-
// weight) score for key: every coordinator ranks the same key the same
// way, so a cluster's build always lands on the same worker while it is
// up — that worker's cache keeps its hit rate across rebuilds — and
// re-ranks deterministically to the next worker when it goes down.
func (r *Remote) rank(key string) []*member {
	now := time.Now()
	type scored struct {
		m *member
		s uint64
	}
	r.memMu.RLock()
	members := r.members
	r.memMu.RUnlock()
	up := make([]scored, 0, len(members))
	for _, m := range members {
		if m.up(now) {
			up = append(up, scored{m, fnv1a64(key + "|" + m.url)})
		}
	}
	sort.Slice(up, func(a, b int) bool {
		if up[a].s != up[b].s {
			return up[a].s > up[b].s
		}
		return up[a].m.url < up[b].m.url // deterministic tie-break
	})
	out := make([]*member, len(up))
	for i, sc := range up {
		out[i] = sc.m
	}
	return out
}

// noteMembership records the up-set one dispatch observed. A changed set
// (worker joined, left, or crossed its down threshold) rotates the
// current set into the previous slot and bumps the epoch. Returns the
// epoch and the previous epoch's up-set.
func (r *Remote) noteMembership(ranked []*member) (int64, []string) {
	up := make([]string, len(ranked))
	for i, m := range ranked {
		up[i] = m.url
	}
	sort.Strings(up)
	r.epochMu.Lock()
	defer r.epochMu.Unlock()
	if !slices.Equal(up, r.curUp) {
		r.prevUp = r.curUp
		r.curUp = up
		r.epoch++
	}
	return r.epoch, r.prevUp
}

// topOwner returns the rendezvous-first URL for key among urls ("" for
// an empty set) — the same score and tie-break rank uses, so it names
// exactly the worker that owned key under that membership.
func topOwner(key string, urls []string) string {
	best, bs := "", uint64(0)
	for _, u := range urls {
		s := fnv1a64(key + "|" + u)
		if best == "" || s > bs || (s == bs && u < best) {
			best, bs = u, s
		}
	}
	return best
}

// Dispatch implements shard.Dispatcher: try the rendezvous-ranked
// workers with deadlines, hedging, and bounded backoff retries; degrade
// to the fallback when the fleet cannot answer.
func (r *Remote) Dispatch(ctx context.Context, req *shard.ClusterRequest) (*shard.ClusterResult, error) {
	ranked := r.rank(req.Key)
	if len(ranked) == 0 {
		r.fallbacks.Add(1)
		return r.opts.Fallback.Dispatch(ctx, req)
	}
	p := payloadOf(req)
	epoch, prevUp := r.noteMembership(ranked)
	p.Epoch = epoch
	if po := topOwner(req.Key, prevUp); po != "" && po != ranked[0].url {
		// Ownership moved across the membership change: tell the new
		// owner where the entry lived so it can try one peer fetch.
		p.PrevOwner = po
	}
	body, err := p.AppendJSON(nil)
	if err != nil {
		// A cluster payload is plain ints and floats; failing to encode
		// one is a programming error, not a fleet problem.
		return nil, fmt.Errorf("fabric: encoding cluster %d payload: %v", req.Index, err)
	}
	valid := validPairs(req.Cluster)

	var lastErr error
	for a := 0; a <= r.opts.Retries; a++ {
		if a > 0 {
			d := r.opts.Backoff << (a - 1)
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		primary := ranked[a%len(ranked)]
		var hedge *member
		if h := ranked[(a+1)%len(ranked)]; h != primary {
			hedge = h
		}
		if a > 0 {
			primary.retried.Add(1)
		}
		res, err := r.raceAttempt(ctx, primary, hedge, req, body, valid)
		if err == nil {
			r.remoteOK.Add(1)
			return res, nil
		}
		if ctx.Err() != nil {
			// The caller is gone; neither more retries nor the local
			// fallback can produce a result anyone wants.
			return nil, ctx.Err()
		}
		lastErr = err
	}
	// Retries exhausted: the build still completes — in-process — and
	// the degradation is counted for /v2/stats.
	r.fallbacks.Add(1)
	res, ferr := r.opts.Fallback.Dispatch(ctx, req)
	if ferr != nil {
		return nil, fmt.Errorf("fabric: fleet failed (%v) and local fallback failed: %w", lastErr, ferr)
	}
	return res, nil
}

// raceAttempt runs one bounded try against primary, hedging to hedge
// when configured: first success wins and cancels the other request.
// When the race resolves with the loser still in flight, the loser's
// member gets a hedged_wasted mark — its work (and any late success that
// unwinds into the buffered channel) is discarded. A canceled loser is
// never a failure: losing a race says nothing about the worker's health.
func (r *Remote) raceAttempt(ctx context.Context, primary, hedge *member, req *shard.ClusterRequest, body []byte, valid map[[2]int]bool) (*shard.ClusterResult, error) {
	actx, cancel := context.WithTimeout(ctx, r.opts.Timeout)
	defer cancel()

	type outcome struct {
		m   *member
		res *shard.ClusterResult
		err error
	}
	ch := make(chan outcome, 2)
	call := func(m *member, hedged bool) {
		m.dispatched.Add(1)
		if hedged {
			m.hedged.Add(1)
		}
		start := time.Now()
		res, err := r.call(actx, m, req, body, valid)
		if err != nil {
			// A canceled request lost the hedge race (or the caller went
			// away) — that is not the worker's failure to note.
			if !errors.Is(err, context.Canceled) {
				m.noteFailure(err, r.opts.FailAfter, r.opts.ProbeAfter)
			}
			ch <- outcome{m, nil, err}
			return
		}
		m.noteSuccess()
		r.latency.Observe(time.Since(start))
		ch <- outcome{m, res, nil}
	}

	go call(primary, false)
	inflight := 1
	var hedgeC <-chan time.Time
	if hedge != nil && r.opts.HedgeAfter > 0 {
		t := time.NewTimer(r.opts.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for {
		select {
		case o := <-ch:
			inflight--
			if o.err == nil {
				if inflight > 0 {
					// The other request was dispatched (and counted into
					// its member's dispatched) but its outcome — even a
					// late success sitting in the buffered channel — is
					// wasted work.
					loser := hedge
					if o.m == hedge {
						loser = primary
					}
					loser.hedgedWasted.Add(1)
				}
				cancel() // first result wins; the loser's request dies with actx
				return o.res, nil
			}
			lastErr = o.err
			if inflight == 0 {
				return nil, lastErr
			}
			// The other request (hedge or primary) is still in flight;
			// it may yet win.
		case <-hedgeC:
			hedgeC = nil
			inflight++
			go call(hedge, true)
		case <-actx.Done():
			// Attempt deadline or caller cancellation. In-flight calls
			// unwind into the buffered channel; nothing leaks.
			return nil, actx.Err()
		}
	}
}

// call performs one POST /v2/cluster round trip with a worker and
// validates the result before it is allowed anywhere near the stitched
// sparsifier.
func (r *Remote) call(ctx context.Context, m *member, req *shard.ClusterRequest, body []byte, valid map[[2]int]bool) (*shard.ClusterResult, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, m.url+"/v2/cluster", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("fabric: %s: %w", m.url, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := r.opts.Client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("fabric: %s: %w", m.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Read a bounded snippet for the health record; a worker that
		// 5xxes tells the operator why through last_error.
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("fabric: %s: status %d: %s", m.url, resp.StatusCode, bytes.TrimSpace(snippet))
	}
	var cr ClusterResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxClusterBody)).Decode(&cr); err != nil {
		return nil, fmt.Errorf("fabric: %s: decoding result: %w", m.url, err)
	}
	if err := validateResult(req, &cr, valid); err != nil {
		return nil, fmt.Errorf("fabric: %s: malformed result: %w", m.url, err)
	}
	switch cr.PeerFetch {
	case "hit":
		r.peerFetches.Add(1)
		r.peerHits.Add(1)
	case "miss":
		r.peerFetches.Add(1)
	}
	return &shard.ClusterResult{Edges: cr.Edges, Stats: cr.Stats, Remote: true}, nil
}

// validPairs builds the set of admissible global endpoint pairs for a
// cluster (normalized low/high): exactly the cluster's own edges mapped
// through the vertex map.
func validPairs(cl *shard.Cluster) map[[2]int]bool {
	set := make(map[[2]int]bool, cl.Local.M())
	for _, e := range cl.Local.Edges {
		set[normPair(cl.Vertices[e.U], cl.Vertices[e.V])] = true
	}
	return set
}

func normPair(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// validateResult rejects malformed worker results before adoption: every
// returned pair must be one of the cluster's own edges, no pair may
// repeat, and the set must be large enough to span the cluster (a
// sparsifier of a connected n-vertex cluster has at least n−1 edges).
// Anything else is a worker bug or version skew and must not be stitched in;
// the dispatcher treats it like any other failure (retry, then degrade
// to a local build).
func validateResult(req *shard.ClusterRequest, cr *ClusterResponse, valid map[[2]int]bool) error {
	n := req.Cluster.Local.N
	if len(cr.Edges) < n-1 {
		return fmt.Errorf("%d edges cannot span %d vertices", len(cr.Edges), n)
	}
	if len(cr.Edges) > req.Cluster.Local.M() {
		return fmt.Errorf("%d edges exceed the cluster's %d", len(cr.Edges), req.Cluster.Local.M())
	}
	seen := make(map[[2]int]bool, len(cr.Edges))
	for _, p := range cr.Edges {
		np := normPair(p[0], p[1])
		if !valid[np] {
			return fmt.Errorf("edge [%d %d] is not a cluster edge", p[0], p[1])
		}
		if seen[np] {
			return fmt.Errorf("edge [%d %d] repeated", p[0], p[1])
		}
		seen[np] = true
	}
	return nil
}

package solver

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sparse"
)

// minSplitN is the fewest unknowns at which a PCG or PCGBlock call asks
// for a second core; below it every kernel runs sequentially, as before.
// Measured on a 2-vCPU Xeon (go1.24, GOMAXPROCS 2) with the split enabled
// from 256 unknowns, scalar PCG through the pencil of a Tri2D sparsifier
// gained nothing at 1,024 unknowns, was mixed at 2,025, and took 6.5–7.2
// ms against 8.1–10.0 ms sequential at 4,096. An empty fork costs about
// 45 ns while the helper spins.
const minSplitN = 4096

var (
	// busy counts the Ps claimed by running PCG and PCGBlock calls, one
	// each, and by their helpers. A call gets a helper only while busy
	// stays within GOMAXPROCS.
	busy atomic.Int32
	// teams maps the first element of a running solve's z vector (panel)
	// to its team. The preconditioner looks its caller's team up by the
	// vector it writes, so a wrapper that forwards Apply unchanged (a
	// timer, a tracer) keeps the split.
	teams sync.Map
)

// job is one kernel split in two halves that write disjoint memory.
type job interface{ run(part int) }

// team is one solve's claim on a second core: a helper goroutine that
// runs the second half of every job the solve forks, spinning with
// runtime.Gosched between forks for the length of the solve. A nil
// *team runs both halves inline.
type team struct {
	posted  atomic.Uint32 // sequence number of the latest fork
	claimed atomic.Uint32 // latest fork whose second half was claimed
	done    atomic.Uint32 // latest fork whose second half the helper ran
	job     job           // the latest fork's job, written before posted
	seq     uint32        // the owner's fork counter
	stop    atomic.Bool
	exited  chan struct{}
	key     *float64
}

// startTeam registers a solve of n unknowns whose preconditioner writes
// z, and returns its team: nil when n is below minSplitN or every P is
// claimed. The caller must call end on the result, nil or not.
func startTeam(n int, z []float64) *team {
	busy.Add(1)
	if n < minSplitN {
		return nil
	}
	procs := int32(runtime.GOMAXPROCS(0))
	for {
		b := busy.Load()
		if b >= procs {
			return nil
		}
		if busy.CompareAndSwap(b, b+1) {
			break
		}
	}
	t := &team{exited: make(chan struct{}), key: &z[0]}
	teams.Store(t.key, t)
	go t.help(procs)
	return t
}

// end releases the solve's claims: it stops the helper, waits for it to
// exit and gives back the caller's P.
func (t *team) end() {
	if t != nil {
		teams.Delete(t.key)
		t.stop.Store(true)
		<-t.exited
	}
	busy.Add(-1)
}

// help runs forked second halves until the owner stops it. It also
// retires early, handing its P back, when more solves than Ps are
// running; the owner then runs both halves of later forks itself.
func (t *team) help(procs int32) {
	defer func() {
		busy.Add(-1)
		close(t.exited)
	}()
	var last uint32
	for {
		if s := t.posted.Load(); s != last {
			last = s
			if t.claimed.CompareAndSwap(s-1, s) {
				t.job.run(1)
				t.done.Store(s)
			}
			continue
		}
		if t.stop.Load() || busy.Load() > procs {
			return
		}
		runtime.Gosched()
	}
}

// fork runs j's two halves, the second on the helper when it claims it
// before the owner finishes the first, and returns when both are done.
func (t *team) fork(j job) {
	if t == nil {
		j.run(0)
		j.run(1)
		return
	}
	t.seq++
	s := t.seq
	t.job = j
	t.posted.Store(s)
	j.run(0)
	if t.claimed.CompareAndSwap(s-1, s) {
		j.run(1)
		return
	}
	for t.done.Load() != s {
		runtime.Gosched()
	}
}

// teamOf returns the team of the running solve whose preconditioner
// writes z, or nil.
func teamOf(z []float64) *team {
	if len(z) == 0 {
		return nil
	}
	if t, ok := teams.Load(&z[0]); ok {
		return t.(*team)
	}
	return nil
}

// half returns part's rows of [0, n) split at mid.
func half(part, mid, n int) (lo, hi int) {
	if part == 0 {
		return 0, mid
	}
	return mid, n
}

// spmv is the product y = A x (x, y panels of width s, s = 0 for
// vectors) split by rows where A's stored entries halve. Each half is a
// row gather, bit-identical to MulVec/MulPanel's scatter for a matrix
// that is symmetric bit for bit.
type spmv struct {
	a    *sparse.CSC
	mid  int
	x, y []float64
	s    int
}

func newSpmv(a *sparse.CSC) *spmv {
	return &spmv{a: a, mid: sort.SearchInts(a.ColPtr, a.NNZ()/2)}
}

// mul computes y = A x: split on t's two cores, or with the sequential
// scatter kernels when t is nil.
func (j *spmv) mul(t *team, x, y []float64, s int) {
	if t == nil {
		if s == 0 {
			j.a.MulVec(x, y)
		} else {
			j.a.MulPanel(x, y, s)
		}
		return
	}
	j.x, j.y, j.s = x, y, s
	t.fork(j)
}

func (j *spmv) run(part int) {
	lo, hi := half(part, j.mid, j.a.Cols)
	if j.s == 0 {
		j.a.MulVecRows(j.x, j.y, lo, hi)
	} else {
		j.a.MulPanelRows(j.x, j.y, j.s, lo, hi)
	}
}

// update is PCG's elementwise step on interleaved panels of width w,
// split by rows at n/2: x += α p and r −= α q when xr is set, else
// p = z + β p, with one coefficient per lane in coef.
type update struct {
	x, r, p, q, z []float64
	coef          []float64
	w             int
	xr            bool
}

func (u *update) run(part int) {
	n := len(u.p) / u.w
	lo, hi := half(part, n/2, n)
	lo, hi = lo*u.w, hi*u.w
	if u.w == 1 {
		c := u.coef[0]
		if u.xr {
			x, r, p, q := u.x[lo:hi], u.r[lo:hi], u.p[lo:hi], u.q[lo:hi]
			for i := range x {
				x[i] += c * p[i]
				r[i] -= c * q[i]
			}
			return
		}
		p, z := u.p[lo:hi], u.z[lo:hi]
		for i := range p {
			p[i] = z[i] + c*p[i]
		}
		return
	}
	w, cl := u.w, u.coef[:u.w]
	// Bounded row slices plus the hints let the compiler drop the
	// per-lane bounds checks.
	for base := lo; base < hi; base += w {
		if u.xr {
			xpi, rpi := u.x[base:base+w], u.r[base:base+w]
			ppi, qpi := u.p[base:base+w], u.q[base:base+w]
			_ = ppi[len(xpi)-1]
			_ = qpi[len(xpi)-1]
			_ = rpi[len(xpi)-1]
			_ = cl[len(xpi)-1]
			for k := range xpi {
				xpi[k] += cl[k] * ppi[k]
				rpi[k] -= cl[k] * qpi[k]
			}
			continue
		}
		ppi, zpi := u.p[base:base+w], u.z[base:base+w]
		_ = zpi[len(ppi)-1]
		_ = cl[len(ppi)-1]
		for k := range ppi {
			ppi[k] = zpi[k] + cl[k]*ppi[k]
		}
	}
}

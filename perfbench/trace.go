package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the driver around
// the call. Attrs carry counts the call returned and, where the driver
// cannot wrap a call nested inside another, times the program reports
// itself (their names end in "_reported_ms").
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 for a request's root span
	Op     int                `json:"op"`     // request index in the replayed sequence
	Name   string             `json:"name"`
	Start  float64            `json:"start_ms"`
	End    float64            `json:"end_ms"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) ms() float64 { return s.End - s.Start }

// recorder keeps spans in memory; it is safe for concurrent use because
// cluster builds run on the shard package's worker goroutines.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	op    int
	// parent is the span cluster builds nest under; set by the replay
	// before each call that may dispatch clusters.
	parent int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 { return float64(time.Since(r.t0)) / float64(time.Millisecond) }

func (r *recorder) begin(name string, parent int) int {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: r.op, Name: name, Start: t})
	return len(r.spans)
}

func (r *recorder) end(id int, attrs map[string]float64) {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = t
	r.spans[id-1].Attrs = attrs
}

// add records a span whose interval the driver derived from others.
func (r *recorder) add(name string, parent int, start, end float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: r.op, Name: name, Start: start, End: end})
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, keyed by span id.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.ms() - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]float64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total float64
	curLo, curHi := iv[0][0], iv[0][1]
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, x := range iv[1:] {
		if x[0] > curHi {
			flush()
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	flush()
	return total
}

// selfSummary aggregates self time per span name over the given ops.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func selfSummary(spans []span, include func(op int) bool) []selfRow {
	self := selfTimes(spans)
	rows := map[string]*selfRow{}
	for _, s := range spans {
		if !include(s.Op) {
			continue
		}
		row := rows[s.Name]
		if row == nil {
			row = &selfRow{Name: s.Name}
			rows[s.Name] = row
		}
		row.Count++
		row.TotalMS += s.ms()
		row.SelfMS += self[s.ID]
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

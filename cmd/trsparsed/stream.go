package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/engine"
)

// The /v2/stream surface: long-lived update sessions for callers whose
// graph evolves continuously (transient power-grid simulation, interactive
// editing). A session retains the evolving graph server-side, so each
// push pays only the delta — no graph re-upload, no O(nnz)
// reconstruction — and rebuilds ride the localized incremental fast path.
//
//	POST   /v2/stream          {"base_key": K}        → open session
//	POST   /v2/stream/{id}     {"set":…, "remove":…}  → push a delta
//	POST   /v2/stream/{id}?wait=1                     → push and block for the rebuild
//	GET    /v2/stream/{id}                            → session snapshot
//	DELETE /v2/stream/{id}                            → close session
//
// Error taxonomy (see classify): 404 unknown_key/unknown_stream,
// 409 stream_closed/stream_failed, 429 backpressure, 503 stream_limit.

type streamOpenRequest struct {
	BaseKey string `json:"base_key"`
}

type streamOpenResponse struct {
	ID string `json:"stream_id"`
	// Staleness and QueueDepth echo the server's effective bounds so
	// clients can size their pacing without probing for 429s.
	Staleness  int `json:"staleness_bound"`
	QueueDepth int `json:"queue_depth"`
	engine.StreamStats
}

// streamPushResponse answers a fire-and-forget push: the accepted
// generation plus how far the served artifact lags behind it.
type streamPushResponse struct {
	Generation int64 `json:"generation"`
	Pending    int   `json:"pending_pushes"`
}

// streamWaitResponse answers ?wait=1: the artifact current after the
// push's rebuild landed, with the same reuse report /v2/update returns.
type streamWaitResponse struct {
	Generation int64                   `json:"generation"`
	Key        string                  `json:"key"`
	Update     engine.StreamUpdateInfo `json:"update"`
	Reuse      *reuseInfo              `json:"reuse"`
}

func (s *server) handleStreamOpen(w http.ResponseWriter, r *http.Request) {
	var req streamOpenRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding JSON body: %w", err))
		return
	}
	if req.BaseKey == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing base_key"))
		return
	}
	st, err := s.eng.StreamOpen(req.BaseKey)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	staleness := s.eng.Options().StreamStaleness
	if staleness <= 0 {
		staleness = engine.DefaultStreamStaleness
	}
	depth := s.eng.Options().StreamQueueDepth
	if depth <= 0 {
		depth = engine.DefaultStreamQueueDepth
	}
	writeJSON(w, http.StatusOK, streamOpenResponse{
		ID:          st.ID(),
		Staleness:   staleness,
		QueueDepth:  depth,
		StreamStats: st.Stats(),
	})
}

// errUnknownStream distinguishes a bad session id from a bad artifact key
// in the error taxonomy.
var errUnknownStream = errors.New("unknown stream id")

func (s *server) stream(w http.ResponseWriter, r *http.Request) *engine.Stream {
	id := r.PathValue("id")
	st, ok := s.eng.StreamGet(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("%w: %q (closed or never opened)", errUnknownStream, id))
		return nil
	}
	return st
}

func (s *server) handleStreamPush(w http.ResponseWriter, r *http.Request) {
	st := s.stream(w, r)
	if st == nil {
		return
	}
	// Validate ?timeout_ms= before the push: once Push accepts the delta
	// it is applied, so a 400 after it would invite a client retry that
	// applies the delta twice.
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	var req deltaBody
	if err := readJSON(w, r, req.member); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	d, err := req.toDelta()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if d.Empty() {
		writeErr(w, http.StatusBadRequest, errors.New("empty delta: pass set and/or remove"))
		return
	}
	gen, err := st.Push(d)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	if r.URL.Query().Get("wait") == "" {
		_, pending := st.Current()
		writeJSON(w, http.StatusAccepted, streamPushResponse{Generation: gen, Pending: pending})
		return
	}
	art, err := st.Wait(ctx, gen)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, streamWaitResponse{
		Generation: gen,
		Key:        art.Key,
		Update:     st.Stats().Last,
		Reuse:      reuseInfoOf(art),
	})
}

func (s *server) handleStreamStats(w http.ResponseWriter, r *http.Request) {
	st := s.stream(w, r)
	if st == nil {
		return
	}
	writeJSON(w, http.StatusOK, st.Stats())
}

func (s *server) handleStreamClose(w http.ResponseWriter, r *http.Request) {
	st := s.stream(w, r)
	if st == nil {
		return
	}
	st.Close()
	writeJSON(w, http.StatusOK, st.Stats())
}

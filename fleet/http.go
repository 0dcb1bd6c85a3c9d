package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"dronedse/groundstation"
)

// Handler returns the JSON-over-HTTP job API:
//
//	POST /jobs      body: [JobSpec, ...]        → {"ids":[...]}
//	GET  /jobs                                  → {"jobs":[JobStatus, ...]}
//	GET  /jobs/{id}                             → JobStatus
//	GET  /jobs/{id}/telemetry                   → the job's raw MAVLink
//	     frame stream, frame-aligned, ending in a clean EOF when the job
//	     finishes
//	GET  /stats                                 → Stats
//	GET  /healthz                               → 200 while the process
//	     serves HTTP at all (liveness)
//	GET  /readyz                                → 200 when the instance
//	     should receive traffic: accepting jobs, engine loop live, journal
//	     writable; 503 + reason otherwise (readiness)
//	POST /shutdown                              → {"ok":true}; the host
//	     process observes ShutdownRequested and exits.
//
// Job lists decode strictly: an unknown field (a typo, or a field this
// server no longer has) is a 400, never silently dropped. Submission
// backpressure: a full admission queue is 429, a draining or shut-down
// server is 503, both with a Retry-After hint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var specs []JobSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&specs); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad job list: %v", err))
			return
		}
		if len(specs) == 0 {
			httpError(w, http.StatusBadRequest, "empty job list")
			return
		}
		ids, err := s.SubmitAll(specs)
		if err != nil {
			code := http.StatusServiceUnavailable
			switch {
			case errors.Is(err, ErrBadSpec):
				code = http.StatusBadRequest
			case errors.Is(err, ErrQueueFull):
				code = http.StatusTooManyRequests
				w.Header().Set("Retry-After", "1")
			case errors.Is(err, ErrDraining), errors.Is(err, ErrShutdown):
				w.Header().Set("Retry-After", "5")
			}
			httpError(w, code, err.Error())
			return
		}
		writeJSON(w, map[string][]uint64{"ids": ids})
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string][]JobStatus{"jobs": s.Jobs()})
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad job id")
			return
		}
		st, ok := s.Job(id)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job")
			return
		}
		writeJSON(w, st)
	})

	mux.HandleFunc("GET /jobs/{id}/telemetry", s.serveTelemetry)

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]bool{"ok": true})
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Ready(); err != nil {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		writeJSON(w, map[string]bool{"ready": true})
	})

	mux.HandleFunc("POST /shutdown", func(w http.ResponseWriter, r *http.Request) {
		s.requestShutdown()
		writeJSON(w, map[string]bool{"ok": true})
	})

	return mux
}

// streamWriteTimeout is how long one telemetry unit may take to write. Each
// write extends the connection's deadline by this much, so a live stream
// outlasts the host's http.Server WriteTimeout while a subscriber that
// stops reading is still disconnected.
const streamWriteTimeout = 10 * time.Second

// serveTelemetry streams a job's telemetry: it subscribes to the job's hub
// and writes each unit whole, then flushes, until the job finishes (the hub
// closes and the queue drains: a clean EOF) or the subscriber goes away.
// A stalled subscriber blocks only this handler while its queue sheds
// oldest units.
func (s *Server) serveTelemetry(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id")
		return
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	closed := s.closed
	if ok && !closed {
		s.subWG.Add(1) // under mu: Shutdown waits only after setting closed
	}
	s.mu.Unlock()
	switch {
	case closed:
		httpError(w, http.StatusServiceUnavailable, ErrShutdown.Error())
		return
	case !ok:
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	defer s.subWG.Done()

	sub := j.hub.Subscribe(s.cfg.SubQueue)
	defer j.hub.Unsubscribe(sub)
	// A subscriber that disconnects ends the request context; unsubscribing
	// then wakes a handler idling in Next.
	defer context.AfterFunc(r.Context(), func() { j.hub.Unsubscribe(sub) })()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	fw := flushWriter{w: w, rc: http.NewResponseController(w)}
	if _, err := fw.Write(nil); err != nil { // send the headers: subscribed
		return
	}
	groundstation.StreamTo(fw, sub)
}

// flushWriter writes each telemetry unit under a fresh write deadline and
// flushes it to the subscriber.
type flushWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (f flushWriter) Write(unit []byte) (int, error) {
	// A writer without deadline support (a wrapping middleware) streams
	// under the server's own WriteTimeout instead.
	_ = f.rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	n, err := f.w.Write(unit)
	if err != nil {
		return n, err
	}
	return n, f.rc.Flush()
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

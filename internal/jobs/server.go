package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ocd/internal/faultinject"
	"ocd/internal/obs"
)

// Server is the HTTP face of a Manager. Routes (Go 1.22+ pattern syntax):
//
//	POST   /jobs                submit a CSV body, returns the job status
//	GET    /jobs                catalog of all jobs
//	GET    /jobs/{id}           status + live progress
//	GET    /jobs/{id}/result    the result document
//	GET    /jobs/{id}/events    live progress/state/done as SSE
//	GET    /jobs/{id}/trace     the last attempt's Chrome trace_event capture
//	POST   /jobs/{id}/cancel    cooperative cancel
//	POST   /jobs/{id}/simplify  ORDER BY simplification over the dataset
//	DELETE /jobs/{id}           remove the job and its directory
//	GET    /healthz             liveness + drain state
//	GET    /metrics             the manager's registry (JSON, or Prometheus
//	                            text via Accept/?format negotiation)
//
// The whole mux runs behind obs.HTTPMetrics: every request gets an
// X-Request-ID (minted or client-chosen) correlated into the access log,
// per-route counters and latency histograms, and the in-flight gauge.
//
// Every route passes a faultinject HTTP point ("jobs.http.<route>") so the
// chaos harness can stall handlers, fail them with 500s, or drop responses
// mid-body under the faultinject build tag; in normal builds the points
// compile to nothing.
type Server struct {
	m       *Manager
	mux     *http.ServeMux
	handler http.Handler

	// heartbeat paces SSE comment keep-alives; tests shorten it.
	heartbeat time.Duration

	// stop ends every open SSE stream so Shutdown is not held hostage by
	// long-lived connections.
	stopOnce sync.Once
	stop     chan struct{}
}

// NewServer wires the routes for m.
func NewServer(m *Manager) *Server {
	s := &Server{
		m:         m,
		mux:       http.NewServeMux(),
		heartbeat: 15 * time.Second,
		stop:      make(chan struct{}),
	}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("POST /jobs/{id}/simplify", s.handleSimplify)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = obs.HTTPMetrics(s.mux, m.Metrics(), m.Logger())
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Close releases every open SSE stream. Call it before (or instead of)
// http.Server.Shutdown — Shutdown waits for active requests, and an SSE
// stream is active until its job finishes or its client leaves.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// errorDoc is the JSON error body: a message plus a stable machine-readable
// kind so clients branch without parsing prose.
type errorDoc struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The header is out; nothing left to do but note it server-side.
		_ = err // response already committed
	}
}

// writeError maps a manager error to a typed HTTP rejection. 429/503 carry
// a Retry-After hint so well-behaved clients back off instead of hammering.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code, kind := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, ErrDraining):
		code, kind = http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrQueueFull):
		code, kind = http.StatusTooManyRequests, "queue-full"
	case errors.Is(err, ErrTooLarge):
		code, kind = http.StatusRequestEntityTooLarge, "too-large"
	case errors.Is(err, ErrLowDisk):
		code, kind = http.StatusServiceUnavailable, "low-disk"
	case errors.Is(err, ErrNotFound):
		code, kind = http.StatusNotFound, "not-found"
	case errors.Is(err, ErrNoResult):
		code, kind = http.StatusConflict, "no-result"
	case errors.Is(err, ErrNoTrace):
		code, kind = http.StatusConflict, "no-trace"
	case errors.Is(err, ErrBadInput):
		code, kind = http.StatusBadRequest, "bad-input"
	}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		secs := int(s.m.cfg.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, code, errorDoc{Error: err.Error(), Kind: kind})
}

// parseJobOptions reads the submission query parameters. Every option is
// optional; errors wrap ErrBadInput.
func parseJobOptions(r *http.Request) (JobOptions, error) {
	q := r.URL.Query()
	var opts JobOptions
	var err error
	intParam := func(name string, dst *int) {
		if err != nil || q.Get(name) == "" {
			return
		}
		v, perr := strconv.Atoi(q.Get(name))
		if perr != nil || v < 0 {
			err = fmt.Errorf("%w: bad %s %q", ErrBadInput, name, q.Get(name))
			return
		}
		*dst = v
	}
	boolParam := func(name string, dst *bool) {
		if err != nil || q.Get(name) == "" {
			return
		}
		v, perr := strconv.ParseBool(q.Get(name))
		if perr != nil {
			err = fmt.Errorf("%w: bad %s %q", ErrBadInput, name, q.Get(name))
			return
		}
		*dst = v
	}
	intParam("workers", &opts.Workers)
	intParam("max-level", &opts.MaxLevel)
	intParam("expand", &opts.ExpandLimit)
	boolParam("force-string", &opts.ForceString)
	boolParam("no-header", &opts.NoHeader)
	if err != nil {
		return opts, err
	}
	if v := q.Get("max-candidates"); v != "" {
		n, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil || n < 0 {
			return opts, fmt.Errorf("%w: bad max-candidates %q", ErrBadInput, v)
		}
		opts.MaxCandidates = n
	}
	if v := q.Get("timeout"); v != "" {
		d, perr := time.ParseDuration(v)
		if perr != nil || d < 0 {
			return opts, fmt.Errorf("%w: bad timeout %q", ErrBadInput, v)
		}
		opts.Timeout = d
	}
	if v := q.Get("columns"); v != "" {
		opts.Columns = splitColumns(v)
	}
	if v := q.Get("sep"); v != "" {
		opts.Delimiter = v
	}
	return opts, nil
}

func splitColumns(v string) []string {
	parts := strings.Split(v, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if faultinject.HTTPPoint("jobs.http.submit", w) {
		return
	}
	opts, err := parseJobOptions(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	j, err := s.m.Submit(r.Context(), r.URL.Query().Get("name"), r.Body, opts)
	if err != nil {
		s.writeError(w, err)
		return
	}
	doc, err := s.m.Status(j.ID())
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, doc)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if faultinject.HTTPPoint("jobs.http.list", w) {
		return
	}
	writeJSON(w, http.StatusOK, s.m.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if faultinject.HTTPPoint("jobs.http.status", w) {
		return
	}
	doc, err := s.m.Status(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if faultinject.HTTPPoint("jobs.http.result", w) {
		return
	}
	data, err := s.m.Result(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(data); err != nil {
		_ = err // client went away mid-response
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if faultinject.HTTPPoint("jobs.http.cancel", w) {
		return
	}
	id := r.PathValue("id")
	if err := s.m.Cancel(id); err != nil {
		s.writeError(w, err)
		return
	}
	doc, err := s.m.Status(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, doc)
}

func (s *Server) handleSimplify(w http.ResponseWriter, r *http.Request) {
	if faultinject.HTTPPoint("jobs.http.simplify", w) {
		return
	}
	cols := splitColumns(r.URL.Query().Get("columns"))
	doc, err := s.m.SimplifyOrderBy(r.Context(), r.PathValue("id"), cols)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if faultinject.HTTPPoint("jobs.http.delete", w) {
		return
	}
	done, err := s.m.Delete(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	if done {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	// Running: cancellation is in flight, removal follows when the attempt
	// observes it.
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "deleting"})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if faultinject.HTTPPoint("jobs.http.healthz", w) {
		return
	}
	h := s.m.Health()
	code := http.StatusOK
	if h.Draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if faultinject.HTTPPoint("jobs.http.metrics", w) {
		return
	}
	obs.WriteMetricsHTTP(w, r, s.m.Metrics())
}

// handleTrace serves the Chrome trace_event capture the last finished
// attempt left in the job directory (see runAttempt). 409 "no-trace"
// until an attempt has run to an end at least once.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if faultinject.HTTPPoint("jobs.http.trace", w) {
		return
	}
	j, err := s.m.get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	data, err := os.ReadFile(tracePath(j.dir))
	if err != nil {
		if os.IsNotExist(err) {
			err = fmt.Errorf("%w: no attempt has finished yet", ErrNoTrace)
		}
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(data); err != nil {
		_ = err // client went away mid-response
	}
}

// lastEventID reads the client's resume position: the standard
// Last-Event-ID header an EventSource sends on reconnect, or the
// ?last-event-id query for clients that cannot set headers.
func lastEventID(r *http.Request) int64 {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("last-event-id")
	}
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// handleEvents streams a job's lifecycle as Server-Sent Events:
//
//	id: <monotone sequence>
//	event: progress | state | done
//	data: <JSON payload>
//
// Heartbeat comments (`: hb`) keep idle connections alive through
// proxies. The stream ends after the terminal "done" event (whose
// payload carries the result document's SHA-256), when the client
// leaves, or when the server shuts down. A reconnecting client sends
// Last-Event-ID and resumes with strictly greater sequence IDs — across
// server restarts too, since the hub renumbers above the client's
// horizon (eventHub.resync).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if faultinject.HTTPPoint("jobs.http.events", w) {
		return
	}
	j, err := s.m.get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError,
			errorDoc{Error: "jobs: streaming unsupported by this connection", Kind: "internal"})
		return
	}

	after := lastEventID(r)
	hub := j.hub()
	hub.resync(after)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	heartbeat := time.NewTicker(s.heartbeat)
	defer heartbeat.Stop()
	for {
		events, closed, wait := hub.next(after)
		for _, ev := range events {
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data); err != nil {
				return // client went away
			}
			after = ev.Seq
		}
		if len(events) > 0 {
			flusher.Flush()
			continue // drain everything pending before blocking
		}
		if closed {
			return // done event delivered (now or before this connect)
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-wait:
		}
	}
}

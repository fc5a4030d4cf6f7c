package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRouteKey(t *testing.T) {
	cases := []struct{ method, pattern, want string }{
		{"GET", "", "unmatched"},
		{"GET", "GET /jobs/{id}/result", "get_jobs_id_result"},
		{"POST", "POST /jobs", "post_jobs"},
		{"GET", "/healthz", "get_healthz"},
		{"DELETE", "DELETE /jobs/{id}", "delete_jobs_id"},
	}
	for _, c := range cases {
		if got := routeKey(c.method, c.pattern); got != c.want {
			t.Errorf("routeKey(%q, %q) = %q, want %q", c.method, c.pattern, got, c.want)
		}
	}
}

func TestHTTPMetricsMiddleware(t *testing.T) {
	reg := NewRegistry()
	var logBuf bytes.Buffer
	logger, err := NewLogger(&logBuf, "json", "info")
	if err != nil {
		t.Fatalf("NewLogger: %v", err)
	}

	mux := http.NewServeMux()
	var sawReqID string
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		sawReqID = RequestIDFrom(r.Context())
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /boom", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	srv := httptest.NewServer(HTTPMetrics(mux, reg, logger))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/jobs/j123")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	echoed := resp.Header.Get("X-Request-ID")
	if echoed == "" {
		t.Errorf("no X-Request-ID echoed")
	}
	if sawReqID != echoed {
		t.Errorf("handler saw request_id %q, header says %q", sawReqID, echoed)
	}

	// A client-chosen request ID is kept.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/jobs/j456", nil)
	req.Header.Set("X-Request-ID", "client-chosen")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET with request id: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-chosen" {
		t.Errorf("client request id not echoed: %q", got)
	}

	// 5xx and 404 paths.
	if resp, err = http.Get(srv.URL + "/boom"); err != nil {
		t.Fatalf("GET /boom: %v", err)
	}
	resp.Body.Close()
	if resp, err = http.Get(srv.URL + "/no/such/route"); err != nil {
		t.Fatalf("GET 404: %v", err)
	}
	resp.Body.Close()

	s := reg.Snapshot()
	if got := s.Counters["http.requests.get_jobs_id"]; got != 2 {
		t.Errorf("get_jobs_id requests = %d, want 2", got)
	}
	if got := s.Counters["http.requests.unmatched"]; got != 1 {
		t.Errorf("unmatched requests = %d, want 1", got)
	}
	if got := s.Counters["http.status.2xx"]; got != 2 {
		t.Errorf("2xx = %d, want 2", got)
	}
	if got := s.Counters["http.status.5xx"]; got != 1 {
		t.Errorf("5xx = %d, want 1", got)
	}
	if got := s.Gauges["http.in_flight"]; got != 0 {
		t.Errorf("in_flight after quiesce = %d, want 0", got)
	}
	h, ok := s.Histograms["http.latency_ms.get_jobs_id"]
	if !ok || h.Count != 2 {
		t.Errorf("latency histogram count = %+v, want 2 observations", h)
	}

	// The access log is JSON with the correlation fields.
	var line map[string]any
	dec := json.NewDecoder(strings.NewReader(logBuf.String()))
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("access log not JSON: %v\n%s", err, logBuf.String())
	}
	for _, k := range []string{"method", "path", "route", "status", "duration_ms", "request_id"} {
		if _, ok := line[k]; !ok {
			t.Errorf("access log line missing %q: %v", k, line)
		}
	}
}

func TestHTTPMetricsPassesThroughFlusher(t *testing.T) {
	mux := http.NewServeMux()
	// The client can see the flushed bytes before the handler returns
	// from Flush, so the handler signals on a channel, not a plain bool.
	flushed := make(chan struct{})
	mux.HandleFunc("GET /stream", func(w http.ResponseWriter, _ *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Errorf("middleware hid http.Flusher from the handler")
			return
		}
		w.Write([]byte("data: x\n\n"))
		f.Flush()
		close(flushed)
	})
	srv := httptest.NewServer(HTTPMetrics(mux, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stream")
	if err != nil {
		t.Fatalf("GET /stream: %v", err)
	}
	resp.Body.Close()
	select {
	case <-flushed:
	case <-time.After(5 * time.Second):
		t.Errorf("stream handler never reached Flush")
	}
}

func TestNewLoggerValidation(t *testing.T) {
	var b bytes.Buffer
	if _, err := NewLogger(&b, "yaml", "info"); err == nil {
		t.Errorf("NewLogger accepted bogus format")
	}
	if _, err := NewLogger(&b, "json", "loud"); err == nil {
		t.Errorf("NewLogger accepted bogus level")
	}
	lg, err := NewLogger(&b, "text", "warn")
	if err != nil {
		t.Fatalf("NewLogger(text, warn): %v", err)
	}
	lg.Info("hidden")
	lg.Warn("visible", "job_id", "j1")
	out := b.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("warn-level logger emitted info line: %s", out)
	}
	if !strings.Contains(out, "visible") || !strings.Contains(out, "job_id=j1") {
		t.Errorf("warn line missing or unstructured: %s", out)
	}
	// NopLogger never writes and never panics.
	NopLogger().Error("dropped", "k", "v")
}

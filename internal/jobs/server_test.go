package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, m *Manager) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url string, body io.Reader, wantCode int, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d, want %d; body: %s", method, url, resp.StatusCode, wantCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return resp
}

// TestServerEndToEnd drives the whole HTTP lifecycle: submit, status with
// progress fields, result fetch, catalog, simplify, health, metrics, delete.
func TestServerEndToEnd(t *testing.T) {
	m := newTestManager(t, Config{MaxActive: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	ts := newTestServer(t, m)

	// Submit with options in the query string.
	var st StatusDoc
	resp := doJSON(t, "POST", ts.URL+"/jobs?name=e2e&workers=1&expand=5", strings.NewReader(testCSV(80)), http.StatusAccepted, &st)
	if st.State != StateQueued && st.State != StateRunning && st.State != StateCompleted {
		t.Fatalf("fresh job in state %q", st.State)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}

	// Poll status until completed.
	deadline := time.Now().Add(10 * time.Second)
	for st.State != StateCompleted {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
		doJSON(t, "GET", ts.URL+"/jobs/"+st.ID, nil, http.StatusOK, &st)
	}
	if !st.ResultReady {
		t.Fatalf("completed but no result: %+v", st)
	}

	// Result document.
	var res ResultDoc
	doJSON(t, "GET", ts.URL+"/jobs/"+st.ID+"/result", nil, http.StatusOK, &res)
	if res.Name != "e2e" || res.Rows != 80 || len(res.OCDs) == 0 {
		t.Fatalf("result: %+v", res)
	}
	if len(res.ExpandedODs) == 0 {
		t.Fatal("expand=5 produced no expanded ODs")
	}

	// Catalog lists the job.
	var list []StatusDoc
	doJSON(t, "GET", ts.URL+"/jobs", nil, http.StatusOK, &list)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("catalog: %+v", list)
	}

	// ORDER BY simplification over the job's dataset: b and c are monotone
	// coarsenings of a, so ORDER BY a,b,c collapses to ORDER BY a.
	var simp SimplifyDoc
	doJSON(t, "POST", ts.URL+"/jobs/"+st.ID+"/simplify?columns=a,b,c", nil, http.StatusOK, &simp)
	if len(simp.Simplified) != 1 || simp.Simplified[0] != "a" {
		t.Fatalf("simplify: %+v", simp)
	}
	var ed errorDoc
	doJSON(t, "POST", ts.URL+"/jobs/"+st.ID+"/simplify?columns=nope", nil, http.StatusBadRequest, &ed)
	if ed.Kind != "bad-input" {
		t.Fatalf("error kind = %q", ed.Kind)
	}

	// Health and metrics.
	var h HealthDoc
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &h)
	if h.Status != "ok" || h.Jobs != 1 {
		t.Fatalf("health: %+v", h)
	}
	var metrics map[string]json.RawMessage
	doJSON(t, "GET", ts.URL+"/metrics", nil, http.StatusOK, &metrics)
	if len(metrics) == 0 {
		t.Fatal("empty metrics")
	}

	// Delete is terminal: the job and its result are gone.
	doJSON(t, "DELETE", ts.URL+"/jobs/"+st.ID, nil, http.StatusNoContent, nil)
	doJSON(t, "GET", ts.URL+"/jobs/"+st.ID, nil, http.StatusNotFound, &ed)
	if ed.Kind != "not-found" {
		t.Fatalf("error kind = %q", ed.Kind)
	}
}

// TestServerAdmissionRejections: the typed 4xx/5xx surface, including the
// Retry-After hint on backpressure responses.
func TestServerAdmissionRejections(t *testing.T) {
	m := newTestManager(t, Config{QueueDepth: 1, RetryAfter: 3 * time.Second})
	// Scheduler intentionally not started: the queue stays full.
	ts := newTestServer(t, m)

	doJSON(t, "POST", ts.URL+"/jobs?name=first", strings.NewReader(testCSV(5)), http.StatusAccepted, nil)

	var ed errorDoc
	resp := doJSON(t, "POST", ts.URL+"/jobs?name=second", strings.NewReader(testCSV(5)), http.StatusTooManyRequests, &ed)
	if ed.Kind != "queue-full" {
		t.Fatalf("error kind = %q", ed.Kind)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want 3", ra)
	}

	doJSON(t, "POST", ts.URL+"/jobs?name=bad&timeout=never", strings.NewReader("a\n1\n"), http.StatusBadRequest, &ed)
	if ed.Kind != "bad-input" {
		t.Fatalf("error kind = %q", ed.Kind)
	}

	// Result of a queued job: 409 with a typed kind, not a hang.
	var list []StatusDoc
	doJSON(t, "GET", ts.URL+"/jobs", nil, http.StatusOK, &list)
	doJSON(t, "GET", ts.URL+"/jobs/"+list[0].ID+"/result", nil, http.StatusConflict, &ed)
	if ed.Kind != "no-result" {
		t.Fatalf("error kind = %q", ed.Kind)
	}

	// Draining: 503 + Retry-After, health flips to draining.
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	resp = doJSON(t, "POST", ts.URL+"/jobs?name=late", strings.NewReader(testCSV(5)), http.StatusServiceUnavailable, &ed)
	if ed.Kind != "draining" || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining rejection: kind=%q headers=%v", ed.Kind, resp.Header)
	}
	var h HealthDoc
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusServiceUnavailable, &h)
	if h.Status != "draining" {
		t.Fatalf("health: %+v", h)
	}
}

// TestServerTooLarge: an oversized upload is rejected with 413 and leaves
// no job behind.
func TestServerTooLarge(t *testing.T) {
	m := newTestManager(t, Config{MaxUploadBytes: 64})
	ts := newTestServer(t, m)
	var ed errorDoc
	doJSON(t, "POST", ts.URL+"/jobs?name=huge", strings.NewReader(testCSV(500)), http.StatusRequestEntityTooLarge, &ed)
	if ed.Kind != "too-large" {
		t.Fatalf("error kind = %q", ed.Kind)
	}
	var list []StatusDoc
	doJSON(t, "GET", ts.URL+"/jobs", nil, http.StatusOK, &list)
	if len(list) != 0 {
		t.Fatalf("rejected job left residue: %+v", list)
	}
}

// TestServerCancelEndpoint: cancel over HTTP lands a running job in
// cancelled without wedging the slot.
func TestServerCancelEndpoint(t *testing.T) {
	setHook(t, func(ctx context.Context, name string) {
		if name == "held" {
			<-ctx.Done()
		}
	})
	m := newTestManager(t, Config{MaxActive: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	ts := newTestServer(t, m)

	var st StatusDoc
	doJSON(t, "POST", ts.URL+"/jobs?name=held", strings.NewReader(testCSV(40)), http.StatusAccepted, &st)
	deadline := time.Now().Add(10 * time.Second)
	for st.State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("never started: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
		doJSON(t, "GET", ts.URL+"/jobs/"+st.ID, nil, http.StatusOK, &st)
	}
	doJSON(t, "POST", ts.URL+"/jobs/"+st.ID+"/cancel", nil, http.StatusAccepted, nil)
	for st.State != StateCancelled {
		if time.Now().After(deadline) {
			t.Fatalf("cancel never landed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
		doJSON(t, "GET", ts.URL+"/jobs/"+st.ID, nil, http.StatusOK, &st)
	}

	// The freed slot runs the next job.
	var st2 StatusDoc
	doJSON(t, "POST", ts.URL+"/jobs?name=next", strings.NewReader(testCSV(40)), http.StatusAccepted, &st2)
	for st2.State != StateCompleted {
		if time.Now().After(deadline) {
			t.Fatalf("follow-up stuck: %+v", st2)
		}
		time.Sleep(5 * time.Millisecond)
		doJSON(t, "GET", ts.URL+"/jobs/"+st2.ID, nil, http.StatusOK, &st2)
	}
}

// TestParseJobOptions covers the query-parameter surface in one table.
func TestParseJobOptions(t *testing.T) {
	mk := func(q string) *http.Request {
		return httptest.NewRequest("POST", "/jobs?"+q, nil)
	}
	opts, err := parseJobOptions(mk("workers=3&timeout=90s&max-level=4&max-candidates=1000&columns=a,%20b,&force-string=1&no-header=true&sep=%3B&expand=7"))
	if err != nil {
		t.Fatal(err)
	}
	want := JobOptions{
		Workers: 3, Timeout: 90 * time.Second, MaxLevel: 4, MaxCandidates: 1000,
		Columns: []string{"a", "b"}, ForceString: true,
		NoHeader: true, Delimiter: ";", ExpandLimit: 7,
	}
	if fmt.Sprint(opts) != fmt.Sprint(want) {
		t.Fatalf("opts = %+v, want %+v", opts, want)
	}
	for _, bad := range []string{"workers=-1", "timeout=xx", "max-candidates=nope", "expand=one", "force-string=maybe"} {
		if _, err := parseJobOptions(mk(bad)); err == nil {
			t.Errorf("parseJobOptions(%q) accepted bad input", bad)
		}
	}
}

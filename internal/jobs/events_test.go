package jobs

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ocd/internal/obs"
)

func TestEventHubBasics(t *testing.T) {
	h := newEventHub()
	h.publish("state", []byte(`{"n":1}`))
	h.publish("progress", []byte(`{"n":2}`))

	events, closed, _ := h.next(0)
	if closed {
		t.Fatalf("hub closed before done")
	}
	if len(events) != 2 || events[0].Seq != 1 || events[1].Seq != 2 {
		t.Fatalf("next(0) = %+v", events)
	}
	events, _, _ = h.next(1)
	if len(events) != 1 || events[0].Type != "progress" {
		t.Fatalf("next(1) = %+v", events)
	}

	// Lost-wakeup safety: the wait channel captured with a drained buffer
	// must fire on the next publish.
	_, _, wait := h.next(2)
	h.publishDone([]byte(`{"end":true}`))
	select {
	case <-wait:
	case <-time.After(time.Second):
		t.Fatalf("publish did not signal the captured wait channel")
	}
	events, closed, _ = h.next(2)
	if !closed || len(events) != 1 || events[0].Type != "done" {
		t.Fatalf("after done: closed=%v events=%+v", closed, events)
	}

	// Publishes after close are dropped; done stays the last word.
	h.publish("progress", []byte(`{"late":true}`))
	events, _, _ = h.next(0)
	if events[len(events)-1].Type != "done" {
		t.Fatalf("post-close publish leaked: %+v", events)
	}
}

func TestEventHubRingEviction(t *testing.T) {
	h := newEventHub()
	for i := 0; i < eventRingSize+100; i++ {
		h.publish("progress", []byte(`{}`))
	}
	events, _, _ := h.next(0)
	if len(events) != eventRingSize {
		t.Fatalf("ring holds %d events, want %d", len(events), eventRingSize)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("ring seqs not contiguous at %d: %d then %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
	if events[len(events)-1].Seq != int64(eventRingSize+100) {
		t.Fatalf("newest seq = %d, want %d", events[len(events)-1].Seq, eventRingSize+100)
	}
}

func TestEventHubResyncAcrossRestart(t *testing.T) {
	// A fresh hub (server restarted, counter back at zero) whose job is
	// already done: a client that saw IDs up to 57 must still get the
	// done event, renumbered above its horizon.
	h := newEventHub()
	h.publish("state", []byte(`{}`))
	h.publishDone([]byte(`{"end":true}`))
	h.resync(57)
	events, closed, _ := h.next(57)
	if !closed || len(events) != 1 || events[0].Type != "done" || events[0].Seq <= 57 {
		t.Fatalf("resync(57): closed=%v events=%+v", closed, events)
	}

	// Even at the exact horizon the done is re-issued: after a restart the
	// hub cannot tell its own old IDs from another incarnation's, so the
	// safe move is to repeat the idempotent terminal event above lastID.
	h2 := newEventHub()
	h2.publishDone([]byte(`{"end":true}`))
	h2.resync(1)
	events, closed, _ = h2.next(1)
	if !closed || len(events) != 1 || events[0].Type != "done" || events[0].Seq <= 1 {
		t.Fatalf("resync at horizon: closed=%v events=%+v", closed, events)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id   int64
	typ  string
	data string
}

// readSSE consumes events from an open stream until stop returns true or
// the stream ends, failing the test on malformed framing.
func readSSE(t *testing.T, body io.Reader, stop func(sseEvent) bool) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.typ != "" {
				events = append(events, cur)
				if stop(cur) {
					return events
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseInt(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.id = n
		case strings.HasPrefix(line, "event: "):
			cur.typ = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[6:]
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return events
}

// streamEvents opens GET /jobs/{id}/events (optionally resuming from
// lastID) and reads until the done event.
func streamEvents(t *testing.T, base, id string, lastID int64) []sseEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("events: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	return drainSSE(t, resp)
}

// drainSSE reads an open stream until its done event.
func drainSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	return readSSE(t, resp.Body, func(ev sseEvent) bool { return ev.typ == "done" })
}

// assertMonotone fails unless ids are strictly increasing and all above
// floor.
func assertMonotone(t *testing.T, evs []sseEvent, floor int64) {
	t.Helper()
	prev := floor
	for _, ev := range evs {
		if ev.id <= prev {
			t.Fatalf("sequence not strictly monotone: id %d after %d (floor %d)", ev.id, prev, floor)
		}
		prev = ev.id
	}
}

func TestSSEStreamLifecycle(t *testing.T) {
	m := newTestManager(t, Config{MaxActive: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	ts := newTestServer(t, m)

	j := submit(t, m, "sse", testCSV(80), JobOptions{Workers: 1})
	evs := streamEvents(t, ts.URL, j.ID(), 0)
	assertMonotone(t, evs, 0)

	last := evs[len(evs)-1]
	if last.typ != "done" {
		t.Fatalf("stream did not end with done: %+v", evs)
	}
	var done doneEvent
	if err := json.Unmarshal([]byte(last.data), &done); err != nil {
		t.Fatalf("done payload: %v", err)
	}
	if done.State != StateCompleted || !done.ResultReady {
		t.Fatalf("done = %+v", done)
	}

	// The advertised hash must match the polled result bytes exactly.
	resp, err := http.Get(ts.URL + "/jobs/" + j.ID() + "/result")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %v", resp.StatusCode, err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != done.ResultSHA256 {
		t.Fatalf("done result_sha256 = %s, polled result hashes to %s", done.ResultSHA256, got)
	}

	// There must be at least one state event landing on "completed".
	var sawCompleted bool
	for _, ev := range evs {
		if ev.typ == "state" && strings.Contains(ev.data, string(StateCompleted)) {
			sawCompleted = true
		}
	}
	if !sawCompleted {
		t.Errorf("no completed state event in stream: %+v", evs)
	}

	// Reconnecting after the end replays done with a strictly greater id.
	evs2 := streamEvents(t, ts.URL, j.ID(), last.id)
	if len(evs2) != 1 || evs2[0].typ != "done" || evs2[0].id <= last.id {
		t.Fatalf("reconnect after done: %+v (last id %d)", evs2, last.id)
	}
	// A brand-new subscriber still gets the terminal event immediately.
	evs3 := streamEvents(t, ts.URL, j.ID(), 0)
	if len(evs3) == 0 || evs3[len(evs3)-1].typ != "done" {
		t.Fatalf("late subscriber missed done: %+v", evs3)
	}
}

func TestSSEReconnectAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()
	m1 := newTestManager(t, Config{Dir: dir, MaxActive: 1})
	ctx1, cancel1 := context.WithCancel(context.Background())
	m1.Start(ctx1)
	ts1 := newTestServer(t, m1)

	j := submit(t, m1, "restart", testCSV(80), JobOptions{Workers: 1})
	evs := streamEvents(t, ts1.URL, j.ID(), 0)
	lastID := evs[len(evs)-1].id
	cancel1()
	m1.Wait()

	// New process over the same data dir: hub sequence restarts at zero,
	// but a client resuming with its old Last-Event-ID must still observe
	// strictly monotone ids and the terminal done.
	m2 := newTestManager(t, Config{Dir: dir, MaxActive: 1})
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	m2.Start(ctx2)
	ts2 := newTestServer(t, m2)

	evs2 := streamEvents(t, ts2.URL, j.ID(), lastID)
	assertMonotone(t, evs2, lastID)
	if len(evs2) != 1 || evs2[0].typ != "done" {
		t.Fatalf("restart reconnect: %+v", evs2)
	}
	var done doneEvent
	if err := json.Unmarshal([]byte(evs2[0].data), &done); err != nil || done.State != StateCompleted {
		t.Fatalf("restart done payload %q: %v", evs2[0].data, err)
	}
}

func TestSSEHeartbeatAndServerClose(t *testing.T) {
	m := newTestManager(t, Config{MaxActive: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	srv := NewServer(m)
	srv.heartbeat = 20 * time.Millisecond
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Hold the job in running so the stream idles on heartbeats.
	release := make(chan struct{})
	testHookBeforeRun = func(ctx context.Context, name string) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	t.Cleanup(func() { testHookBeforeRun = nil; close(release) })

	j := submit(t, m, "held", testCSV(10), JobOptions{Workers: 1})
	resp, err := http.Get(ts.URL + "/jobs/" + j.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Expect at least one heartbeat comment while the job is held.
	deadline := time.Now().Add(5 * time.Second)
	sc := bufio.NewScanner(resp.Body)
	var sawHeartbeat bool
	for sc.Scan() && time.Now().Before(deadline) {
		if strings.HasPrefix(sc.Text(), ":") {
			sawHeartbeat = true
			break
		}
	}
	if !sawHeartbeat {
		t.Fatalf("no heartbeat on an idle stream")
	}

	// Close releases the stream even though the job still runs.
	closedCh := make(chan struct{})
	go func() {
		for sc.Scan() {
		}
		close(closedCh)
	}()
	srv.Close()
	select {
	case <-closedCh:
	case <-time.After(5 * time.Second):
		t.Fatalf("Server.Close did not release the SSE stream")
	}
}

func TestTraceEndpoint(t *testing.T) {
	m := newTestManager(t, Config{MaxActive: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	ts := newTestServer(t, m)

	// Unknown job: 404. Known job before any attempt finished: 409.
	resp, err := http.Get(ts.URL + "/jobs/nosuch/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace of unknown job: %d", resp.StatusCode)
	}

	j := submit(t, m, "traced", testCSV(80), JobOptions{Workers: 1})
	waitState(t, m, j.ID(), StateCompleted)

	resp, err = http.Get(ts.URL + "/jobs/" + j.ID() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("trace: %d: %s", resp.StatusCode, body)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("trace not valid Chrome trace JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatalf("trace has no events")
	}
	var names []string
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
		names = append(names, ev.Name)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "job:traced") {
		t.Errorf("trace root span missing: %v", names)
	}
}

// TestMetricsPrometheusMatchesJSON is the acceptance check: the same
// scrape window served as Prometheus text parses strictly and agrees
// with the JSON snapshot counter for counter.
func TestMetricsPrometheusMatchesJSON(t *testing.T) {
	m := newTestManager(t, Config{MaxActive: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	ts := newTestServer(t, m)

	j := submit(t, m, "prom", testCSV(80), JobOptions{Workers: 1})
	waitState(t, m, j.ID(), StateCompleted)

	// Warm up the HTTP counters: middleware instruments complete after the
	// response body is written, so a scrape never sees its own request.
	warm, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body) // warm-up fetch
	warm.Body.Close()

	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	doJSON(t, "GET", ts.URL+"/metrics", nil, http.StatusOK, &snap)

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("prometheus content type = %q", ct)
	}
	scrape, err := obs.ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("jobs-server scrape does not parse: %v", err)
	}

	if len(snap.Counters) == 0 {
		t.Fatalf("JSON snapshot has no counters")
	}
	for name, want := range snap.Counters {
		prom := strings.NewReplacer(".", "_", "-", "_").Replace(name)
		got, ok := scrape.Value(prom)
		if !ok {
			t.Errorf("counter %s missing from Prometheus scrape (as %s)", name, prom)
			continue
		}
		if strings.HasPrefix(name, "http.") {
			// The JSON fetch between the two scrapes adds to its own route
			// and status counters; everything else is quiescent.
			if int64(got) < want || int64(got) > want+1 {
				t.Errorf("counter %s: prometheus %v, json %d (want within +1)", name, got, want)
			}
			continue
		}
		if int64(got) != want {
			t.Errorf("counter %s: prometheus %v, json %d", name, got, want)
		}
	}
	if v, ok := scrape.Value("ocd_build_info"); !ok || v != 1 {
		t.Errorf("ocd_build_info = %v, %v", v, ok)
	}
	if v, ok := scrape.Value("jobs_completed"); !ok || v < 1 {
		t.Errorf("jobs_completed = %v, %v; want >= 1", v, ok)
	}
	// The middleware's own instruments are on the same registry.
	found := false
	for name := range scrape.Families {
		if strings.HasPrefix(name, "http_requests_") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no http_requests_* families in scrape: %v", scrape.Order)
	}
}

func TestSSEDeleteMidRunEmitsDone(t *testing.T) {
	m := newTestManager(t, Config{MaxActive: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	ts := newTestServer(t, m)

	started := make(chan struct{})
	release := make(chan struct{})
	testHookBeforeRun = func(ctx context.Context, name string) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	t.Cleanup(func() { testHookBeforeRun = nil; close(release) })

	j := submit(t, m, "todelete", testCSV(10), JobOptions{Workers: 1})
	<-started

	type streamResult struct {
		evs []sseEvent
		err error
	}
	resCh := make(chan streamResult, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+j.ID()+"/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			resCh <- streamResult{err: err}
			return
		}
		defer resp.Body.Close()
		resCh <- streamResult{evs: drainSSE(t, resp)}
	}()

	// Give the subscriber a beat to connect, then delete the running job.
	time.Sleep(50 * time.Millisecond)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+j.ID(), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("delete running job: %d", resp.StatusCode)
	}

	select {
	case res := <-resCh:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if len(res.evs) == 0 {
			t.Fatalf("no events before delete completed")
		}
		last := res.evs[len(res.evs)-1]
		var done doneEvent
		if err := json.Unmarshal([]byte(last.data), &done); err != nil {
			t.Fatalf("done payload %q: %v", last.data, err)
		}
		if done.State != StateDeleted {
			t.Fatalf("done state = %q, want %q", done.State, StateDeleted)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("stream did not observe the delete")
	}
}

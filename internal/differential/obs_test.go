//go:build faultinject

package differential

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ocd/internal/faultinject"
	"ocd/internal/jobs"
	"ocd/internal/obs"
)

// event is one server-sent event.
type event struct {
	id        int64
	typ, data string
}

// follow reads a job's event stream until the server ends it, after the
// done event or by dying, and returns the events read; last, when
// positive, is sent as Last-Event-ID. The transcript goes to file.
func follow(ctx context.Context, s *ocdserve, id string, last int64, file string) (evs []event, err error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if last > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(last, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body) // a killed server cuts it short, with an error
	os.WriteFile(file, raw, 0o644)    // the transcript is only an artifact
	for _, block := range strings.SplitAfter(string(raw), "\n\n") {
		var ev event
		for _, line := range strings.Split(block, "\n") {
			switch k, v, _ := strings.Cut(line, ": "); k {
			case "id": // a malformed id reads 0 and fails the rising-ids check
				ev.id, _ = strconv.ParseInt(v, 10, 64)
			case "event":
				ev.typ = v
			case "data":
				ev.data = v
			}
		}
		if ev.typ != "" && strings.HasSuffix(block, "\n\n") {
			evs = append(evs, ev)
		}
	}
	return evs, err
}

// checkStream requires ids rising strictly above floor and, unless the
// stream was cut, a done event reporting completed with the SHA-256 of the
// bytes GET /jobs/{id}/result serves.
func (s *ocdserve) checkStream(t *testing.T, evs []event, floor int64, id string) {
	t.Helper()
	var done struct {
		State        jobs.State `json:"state"`
		ResultSHA256 string     `json:"result_sha256"`
	}
	for _, ev := range evs {
		if ev.id <= floor {
			t.Fatalf("event id %d after %d: ids not strictly rising", ev.id, floor)
		}
		if floor = ev.id; ev.typ == "done" {
			must(t, json.Unmarshal([]byte(ev.data), &done))
		}
	}
	if id == "" {
		return
	}
	_, body := s.call(t, http.MethodGet, "/jobs/"+id+"/result", nil)
	if sum := sha256.Sum256(body); done.State != jobs.StateCompleted || done.ResultSHA256 != hex.EncodeToString(sum[:]) {
		t.Errorf("done event %+v, want completed with result_sha256 %x", done, sum)
	}
}

// TestObservability requires the job server's observability contract: the
// Prometheus text agrees with the JSON snapshot, event streams carry
// rising ids and a done event bound to the result's hash, across a
// mid-stream kill and a Last-Event-ID reconnect too, finished jobs serve
// a Chrome trace, and the JSON logs parse with job and request ids.
func TestObservability(t *testing.T) {
	t.Parallel()
	logs, dir := artifacts(t), t.TempDir()
	at := func(name string) string { return filepath.Join(logs, name) }
	var base canon
	var id string
	var last int64

	step(t, "uninterrupted server", func(t *testing.T) {
		s := startServer(t, at("prom.log"), t.TempDir(), "", "-log-format", "json")
		s.waitJob(t, s.submit(t, "tax", taxinfo, 1), jobs.StateCompleted)
		t.Run("prometheus text agrees with the JSON snapshot", func(t *testing.T) {
			// The only job is finished: the jobs.* counters hold still.
			var snap struct{ Counters map[string]int64 }
			s.getJSON(t, "/metrics", &snap)
			resp, text := s.call(t, http.MethodGet, "/metrics?format=prometheus", nil)
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
				t.Errorf("content type %q", ct)
			}
			must(t, os.WriteFile(at("metrics.prom"), text, 0o644))
			scrape, err := obs.ParsePrometheus(bytes.NewReader(text))
			must(t, err)
			if f := scrape.Families["ocd_build_info"]; f == nil || f.Type != "gauge" || len(f.Samples) == 0 {
				t.Errorf("ocd_build_info gauge missing: %+v", f)
			}
			for _, c := range []string{"jobs.submitted", "jobs.completed"} {
				if v, ok := scrape.Value(strings.ReplaceAll(c, ".", "_")); !ok || int64(v) != snap.Counters[c] {
					t.Errorf("counter %s: prometheus %v (%v), JSON %d", c, v, ok, snap.Counters[c])
				}
			}
			if snap.Counters["jobs.completed"] < 1 {
				t.Error("no completed job in the snapshot")
			}
			inf := false
			for _, smp := range scrape.Families["http_latency_ms_get_jobs_id"].Samples {
				inf = inf || smp.Name == "http_latency_ms_get_jobs_id_bucket" && smp.Labels["le"] == "+Inf"
			}
			if !inf {
				t.Error("latency histogram lacks its +Inf bucket")
			}
			if _, text := s.call(t, http.MethodGet, "/metrics", nil, "Accept", "text/plain"); !bytes.HasPrefix(text, []byte("# TYPE")) {
				t.Errorf("Accept: text/plain did not negotiate the text format: %.40q", text)
			}
		})
		t.Run("event stream has rising ids and a done event bound to the result", func(t *testing.T) {
			id = s.submit(t, "flight50", flight50, 1)
			evs, err := follow(context.Background(), s, id, 0, at("stream_live.sse"))
			must(t, err)
			s.checkStream(t, evs, 0, id)
			types := map[string]bool{}
			for _, ev := range evs {
				types[ev.typ] = true
			}
			if !types["progress"] || !types["state"] {
				t.Errorf("stream event types %v, want progress and state", types)
			}
			var doc jobs.ResultDoc
			if base, doc = s.result(t, id, "flight50"); doc.Levels < 3 {
				t.Fatalf("flight50 traversal has only %d levels; the level-3 kill cannot fire", doc.Levels)
			}
		})
		t.Run("finished job serves a Chrome trace", func(t *testing.T) {
			var trace struct{ TraceEvents []struct{ Name string } }
			must(t, os.WriteFile(at("trace.json"), s.getJSON(t, "/jobs/"+id+"/trace", &trace), 0o644))
			root := false
			for _, ev := range trace.TraceEvents {
				root = root || ev.Name == "job:flight50"
			}
			if !root {
				t.Errorf("trace of %d events lacks the job:flight50 root span", len(trace.TraceEvents))
			}
			if resp, _ := s.call(t, http.MethodGet, "/jobs/nosuch/trace", nil); resp.StatusCode != http.StatusNotFound {
				t.Errorf("trace of an unknown job: %s, want 404", resp.Status)
			}
		})
		s.stop(t)
	})
	step(t, "kill the server mid-stream at level 3", func(t *testing.T) {
		// The first reduction row sleeps for a second, so the stream is
		// connected before the kill.
		s := startServer(t, at("crash.log"), dir, "core.reduction.row:delay:1;core.level.start:exit:3", "-log-format", "json")
		id = s.submit(t, "flight50", flight50, 1)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cut := make(chan []event, 1)
		go func() {
			evs, _ := follow(ctx, s, id, 0, at("stream_cut.sse")) // the kill ends the stream with an error
			cut <- evs
		}()
		s.waitExit(t, faultinject.ExitCode)
		evs := <-cut
		if len(evs) == 0 {
			t.Fatal("the cut stream received no event before the kill")
		}
		s.checkStream(t, evs, 0, "")
		last = evs[len(evs)-1].id
	})
	step(t, "reconnect after restart", func(t *testing.T) {
		s := startServer(t, at("restart.log"), dir, "", "-log-format", "json")
		t.Run("Last-Event-ID resumes above the horizon to a bound done event", func(t *testing.T) {
			evs, err := follow(context.Background(), s, id, last, at("stream_resumed.sse"))
			must(t, err)
			s.checkStream(t, evs, last, id)
			got, doc := s.result(t, id, "flight50")
			if !doc.Resumed {
				t.Error("the killed job did not resume from its snapshot")
			}
			mustAgree(t, got, base)
		})
		t.Run("a late subscriber sees the done event", func(t *testing.T) {
			evs, err := follow(context.Background(), s, id, 0, at("stream_late.sse"))
			must(t, err)
			s.checkStream(t, evs, 0, id)
		})
		s.stop(t)
	})
	t.Run("JSON logs carry job and request ids", func(t *testing.T) {
		count := func(log string, match func(rec map[string]any) bool) (n int) {
			data, err := os.ReadFile(at(log))
			must(t, err)
			for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
				var rec map[string]any
				must(t, json.Unmarshal([]byte(line), &rec))
				if match(rec) {
					n++
				}
			}
			return n
		}
		if count("prom.log", func(r map[string]any) bool { return r["msg"] == "job admitted" }) == 0 {
			t.Error("no job admitted record")
		}
		if count("prom.log", func(r map[string]any) bool { return r["msg"] == "http request" && r["request_id"] != nil }) == 0 {
			t.Error("no http request record with a request_id")
		}
		if count("restart.log", func(r map[string]any) bool { return r["job_id"] != nil }) == 0 {
			t.Error("the restarted server logged no job-scoped record")
		}
	})
}

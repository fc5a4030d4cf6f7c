package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestProgressWriterFormatsAndRateLimits(t *testing.T) {
	var buf bytes.Buffer
	pw := NewProgressWriter(&buf, time.Hour) // only the first + final samples pass
	pw.Report(Progress{Level: 4, FrontierSize: 100, Done: 37, Checks: 52_100,
		ChecksPerSec: 18_300, CacheHitRate: 0.91, ETA: 3 * time.Second})
	pw.Report(Progress{Level: 4, FrontierSize: 100, Done: 90, Checks: 90_000,
		CacheHitRate: -1, ETA: -1}) // rate-limited away
	pw.Report(Progress{Level: 5, Checks: 123_456, Elapsed: 2 * time.Second,
		PriorElapsed: time.Second, Final: true})

	out := buf.String()
	if !strings.Contains(out, "level 4  frontier 100 (37%)") {
		t.Fatalf("missing level/frontier: %q", out)
	}
	if !strings.Contains(out, "checks 52.1k (18.3k/s)") {
		t.Fatalf("missing checks rate: %q", out)
	}
	if !strings.Contains(out, "cache 91%") || !strings.Contains(out, "eta ~3s") {
		t.Fatalf("missing cache/eta: %q", out)
	}
	if strings.Contains(out, "90.0k") {
		t.Fatalf("rate-limited sample leaked: %q", out)
	}
	if !strings.Contains(out, "done: reached level 5 in 3s, 123.5k checks") {
		t.Fatalf("missing final line: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("final line not newline-terminated: %q", out)
	}
}

func TestProgressWriterPadsShorterLines(t *testing.T) {
	var buf bytes.Buffer
	pw := NewProgressWriter(&buf, 0)
	pw.Report(Progress{Level: 2, FrontierSize: 123456, Checks: 1})
	pw.Report(Progress{Level: 3, FrontierSize: 1, Checks: 2})
	lines := strings.Split(buf.String(), "\r")
	if len(lines) < 3 {
		t.Fatalf("expected two \\r-prefixed lines: %q", buf.String())
	}
	if len(lines[2]) < len(lines[1]) {
		t.Fatalf("second line %q shorter than first %q — no padding", lines[2], lines[1])
	}
}

func TestReporterFunc(t *testing.T) {
	var got Progress
	r := ReporterFunc(func(p Progress) { got = p })
	r.Report(Progress{Level: 7})
	if got.Level != 7 {
		t.Fatalf("ReporterFunc did not forward: %+v", got)
	}
}

func TestHumanCount(t *testing.T) {
	cases := map[int64]string{
		0:             "0",
		999:           "999",
		9999:          "9999",
		10_000:        "10.0k",
		52_100:        "52.1k",
		3_400_000:     "3.4M",
		2_000_000_000: "2.0G",
	}
	for in, want := range cases {
		if got := humanCount(in); got != want {
			t.Errorf("humanCount(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("discover.checks").Add(11)
	addr, stop, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer stop()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.Bytes()
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics JSON: %v", err)
	}
	if snap.Counters["discover.checks"] != 11 {
		t.Fatalf("/metrics snapshot = %+v", snap)
	}
	if !bytes.Contains(get("/debug/vars"), []byte("ocd.metrics")) {
		t.Fatal("/debug/vars does not publish ocd.metrics")
	}
	if len(get("/debug/pprof/cmdline")) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}

	// A second debug server rebinds the expvar publication without
	// panicking on duplicate Publish.
	reg2 := NewRegistry()
	reg2.Counter("discover.checks").Add(99)
	addr2, stop2, err := ServeDebug("127.0.0.1:0", reg2)
	if err != nil {
		t.Fatalf("second ServeDebug: %v", err)
	}
	defer stop2()
	resp, err := http.Get("http://" + addr2 + "/debug/vars")
	if err != nil {
		t.Fatalf("GET second /debug/vars: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(buf.Bytes(), []byte(`"discover.checks":99`)) {
		t.Fatalf("expvar not rebound to new registry: %s", buf.String())
	}
}

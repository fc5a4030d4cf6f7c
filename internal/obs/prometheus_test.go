package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSanitizeMetricName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"jobs.submitted", "jobs_submitted"},
		{"http.latency_ms.get_jobs_id", "http_latency_ms_get_jobs_id"},
		{"already_fine:colon", "already_fine:colon"},
		{"9starts.with.digit", "_9starts_with_digit"},
		{"weird-chars/σ", "weird_chars__"},
		{"", "_"},
	}
	for _, c := range cases {
		if got := sanitizeMetricName(c.in); got != c.want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWritePrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs.submitted").Add(7)
	reg.Gauge("jobs.queued").Set(3)
	h := reg.Histogram("check.latency_us", []int64{10, 100, 1000})
	for _, v := range []int64{5, 50, 500, 5000, 50000} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b, Label{Key: "job_id", Value: `j"1\2`}); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()

	scrape, err := ParsePrometheus(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ParsePrometheus rejected our own output: %v\n%s", err, out)
	}
	if v, ok := scrape.Value("jobs_submitted"); !ok || v != 7 {
		t.Errorf("jobs_submitted = %v, %v; want 7", v, ok)
	}
	if v, ok := scrape.Value("jobs_queued"); !ok || v != 3 {
		t.Errorf("jobs_queued = %v, %v; want 3", v, ok)
	}
	fam := scrape.Families["check_latency_us"]
	if fam == nil || fam.Type != "histogram" {
		t.Fatalf("check_latency_us family missing or mistyped: %+v", fam)
	}
	// Cumulative invariants: last bucket is +Inf and equals _count.
	var lastBucket, count float64
	var lastLe string
	for _, s := range fam.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			lastBucket, lastLe = s.Value, s.Labels["le"]
			if s.Labels["job_id"] != `j"1\2` {
				t.Errorf("bucket lost const label: %+v", s.Labels)
			}
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		}
	}
	if lastLe != "+Inf" || lastBucket != 5 || count != 5 {
		t.Errorf("+Inf bucket %v (le=%s), _count %v; want both 5", lastBucket, lastLe, count)
	}
	if v, ok := scrape.Value("check_latency_us_sum"); !ok || v != 55555 {
		t.Errorf("_sum = %v, %v; want 55555", v, ok)
	}
	// Escaped label round-trips through the parser.
	for _, s := range scrape.Families["jobs_submitted"].Samples {
		if s.Labels["job_id"] != `j"1\2` {
			t.Errorf("job_id label = %q, want %q", s.Labels["job_id"], `j"1\2`)
		}
	}
}

func TestWritePrometheusEmptyRegistry(t *testing.T) {
	for _, reg := range []*Registry{NewRegistry(), nil} {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatalf("WritePrometheus on empty registry: %v", err)
		}
		scrape, err := ParsePrometheus(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("parse empty-registry output: %v\n%s", err, b.String())
		}
		// Only the synthetic build-info series.
		if len(scrape.Order) != 1 || scrape.Order[0] != "ocd_build_info" {
			t.Errorf("families = %v, want [ocd_build_info]", scrape.Order)
		}
		if v, ok := scrape.Value("ocd_build_info"); !ok || v != 1 {
			t.Errorf("ocd_build_info = %v, %v; want 1", v, ok)
		}
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	reg := NewRegistry()
	for _, n := range []string{"z.last", "a.first", "m.mid"} {
		reg.Counter(n).Inc()
	}
	var b1, b2 strings.Builder
	reg.WritePrometheus(&b1) // strings.Builder never fails
	reg.WritePrometheus(&b2) // strings.Builder never fails
	if b1.String() != b2.String() {
		t.Errorf("output not deterministic:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	if !strings.Contains(b1.String(), "a_first") {
		t.Fatalf("missing counter in output:\n%s", b1.String())
	}
	if strings.Index(b1.String(), "a_first") > strings.Index(b1.String(), "z_last") {
		t.Errorf("families not sorted:\n%s", b1.String())
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	cases := []struct{ name, in string }{
		{"sample before TYPE", "loose_metric 1\n"},
		{"bad name", "# TYPE 1bad counter\n1bad 1\n"},
		{"bad value", "# TYPE c counter\nc one\n"},
		{"non-cumulative buckets", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\n" +
			"h_sum 9\nh_count 3\n"},
		{"inf bucket vs count", "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 4` + "\n" + "h_sum 9\nh_count 3\n"},
		{"missing count", "# TYPE h histogram\n" + `h_bucket{le="+Inf"} 3` + "\nh_sum 9\n"},
		{"last bucket not inf", "# TYPE h histogram\n" + `h_bucket{le="5"} 3` + "\n" +
			"h_sum 9\nh_count 3\n"},
		{"unterminated label", "# TYPE c counter\n" + `c{x="y 1` + "\n"},
		{"duplicate TYPE", "# TYPE c counter\n# TYPE c counter\nc 1\n"},
	}
	for _, c := range cases {
		if _, err := ParsePrometheus(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: parser accepted %q", c.name, c.in)
		}
	}
}

func TestMetricsContentNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("neg.count").Add(42)

	get := func(target string, hdr map[string]string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodGet, target, nil)
		for k, v := range hdr {
			r.Header.Set(k, v)
		}
		w := httptest.NewRecorder()
		WriteMetricsHTTP(w, r, reg)
		return w
	}

	// Default stays JSON for backward compatibility.
	w := get("/metrics", nil)
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("default content type = %q, want application/json", ct)
	}
	if !strings.Contains(w.Body.String(), `"neg.count": 42`) {
		t.Errorf("JSON body missing counter: %s", w.Body.String())
	}

	// ?format=prometheus and Accept: text/plain both negotiate text.
	for _, tc := range []struct {
		target string
		hdr    map[string]string
	}{
		{"/metrics?format=prometheus", nil},
		{"/metrics", map[string]string{"Accept": "text/plain"}},
		{"/metrics", map[string]string{"Accept": "text/plain;version=0.0.4"}},
	} {
		w := get(tc.target, tc.hdr)
		if ct := w.Header().Get("Content-Type"); ct != PromContentType {
			t.Errorf("%s %v: content type = %q, want %q", tc.target, tc.hdr, ct, PromContentType)
		}
		scrape, err := ParsePrometheus(strings.NewReader(w.Body.String()))
		if err != nil {
			t.Fatalf("%s %v: %v", tc.target, tc.hdr, err)
		}
		if v, ok := scrape.Value("neg_count"); !ok || v != 42 {
			t.Errorf("%s %v: neg_count = %v, %v", tc.target, tc.hdr, v, ok)
		}
	}

	// Explicit ?format=json wins over a text Accept header.
	w = get("/metrics?format=json", map[string]string{"Accept": "text/plain"})
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("format=json content type = %q", ct)
	}
}

func TestServeDebugMetricsNegotiationAndExpvarRebind(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dbg.hits").Add(5)
	addr, stop, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}

	resp, err := http.Get("http://" + addr + "/metrics?format=prometheus")
	if err != nil {
		stop()
		t.Fatalf("GET /metrics: %v", err)
	}
	scrape, err := ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		stop()
		t.Fatalf("parse debug-server scrape: %v", err)
	}
	if v, ok := scrape.Value("dbg_hits"); !ok || v != 5 {
		stop()
		t.Fatalf("dbg_hits = %v, %v; want 5", v, ok)
	}

	stop()
	// The shutdown func must unbind the process-wide expvar publication
	// from this registry so nothing serves its stale snapshot.
	expvarMu.Lock()
	stale := expvarReg == reg
	expvarMu.Unlock()
	if stale {
		t.Errorf("expvarReg still points at the stopped server's registry")
	}

	// A later debug server rebinds cleanly.
	reg2 := NewRegistry()
	reg2.Counter("dbg.second").Add(1)
	_, stop2, err := ServeDebug("127.0.0.1:0", reg2)
	if err != nil {
		t.Fatalf("second ServeDebug: %v", err)
	}
	defer stop2()
	expvarMu.Lock()
	bound := expvarReg == reg2
	expvarMu.Unlock()
	if !bound {
		t.Errorf("second ServeDebug did not rebind the expvar publication")
	}
}

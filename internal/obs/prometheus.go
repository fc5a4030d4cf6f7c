package obs

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
)

// Prometheus text exposition (format version 0.0.4) for the registry.
// Like the rest of the package it is dependency-free: the writer renders
// a Snapshot directly, so a scrape is exactly as consistent as the JSON
// export taken in the same instant (per-instrument atomic, no
// cross-instrument fence).
//
// Mapping:
//
//	counter    →  `# TYPE <name> counter` + one sample
//	gauge      →  `# TYPE <name> gauge` + one sample
//	histogram  →  `# TYPE <name> histogram` + cumulative `_bucket` samples
//	              (inclusive upper bounds become `le` labels, the implicit
//	              overflow bucket becomes `le="+Inf"`), `_sum` and `_count`
//
// Instrument names are sanitized for the exposition grammar: every rune
// outside [a-zA-Z0-9_:] becomes `_` (so `jobs.submitted` scrapes as
// `jobs_submitted`), and a leading digit gets a `_` prefix. Names are
// chosen by this repo, so sanitized collisions do not occur in practice;
// the writer does not attempt to merge them.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one constant label applied to every series written by
// WritePrometheus — the idiomatic way to scope a registry scrape to a
// job (`job_id="j1234"`) without baking the label into metric names.
type Label struct {
	Key, Value string
}

// sanitizeMetricName maps an instrument name onto the exposition
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		valid := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if valid {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatLabels renders a label set (already sorted) as `{k="v",...}`,
// or "" when empty.
func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, sanitizeMetricName(l.Key), escapeLabelValue(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

var (
	buildInfoOnce   sync.Once
	buildInfoLabels []Label
)

// buildInfo returns the ocd_build_info label set, stamped once from
// runtime/debug.ReadBuildInfo (module path, version, vcs revision when
// embedded) plus the running Go version.
func buildInfo() []Label {
	buildInfoOnce.Do(func() {
		buildInfoLabels = []Label{{Key: "goversion", Value: runtime.Version()}}
		if bi, ok := debug.ReadBuildInfo(); ok {
			path, version := bi.Main.Path, bi.Main.Version
			if path == "" {
				path = "ocd"
			}
			if version == "" {
				version = "(devel)"
			}
			buildInfoLabels = append(buildInfoLabels,
				Label{Key: "path", Value: path},
				Label{Key: "version", Value: version})
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					buildInfoLabels = append(buildInfoLabels, Label{Key: "revision", Value: s.Value})
					break
				}
			}
		}
		sort.Slice(buildInfoLabels, func(a, b int) bool {
			return buildInfoLabels[a].Key < buildInfoLabels[b].Key
		})
	})
	return buildInfoLabels
}

// WritePrometheus writes the registry's current snapshot in the
// Prometheus text exposition format 0.0.4. Families are emitted in
// sorted (sanitized) name order with their `# TYPE` line first, so the
// output is byte-deterministic for a fixed snapshot. constLabels are
// attached to every series (histogram `le` comes last). The synthetic
// `ocd_build_info` gauge (value 1, labelled with the module path,
// version and Go version from runtime/debug.ReadBuildInfo) is always
// included. Nil receiver writes only the build-info series.
func (r *Registry) WritePrometheus(w io.Writer, constLabels ...Label) error {
	return writePrometheusSnapshot(w, r.Snapshot(), constLabels)
}

// promFamily is one named series group staged for sorted emission.
type promFamily struct {
	name string // sanitized
	typ  string
	emit func(w io.Writer, labels string, labelSet []Label) error
}

func writePrometheusSnapshot(w io.Writer, s Snapshot, constLabels []Label) error {
	labels := append([]Label(nil), constLabels...)
	sort.Slice(labels, func(a, b int) bool { return labels[a].Key < labels[b].Key })
	rendered := formatLabels(labels)

	fams := make([]promFamily, 0, 1+len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	fams = append(fams, promFamily{
		name: "ocd_build_info",
		typ:  "gauge",
		emit: func(w io.Writer, _ string, labelSet []Label) error {
			all := append(append([]Label(nil), buildInfo()...), labelSet...)
			sort.Slice(all, func(a, b int) bool { return all[a].Key < all[b].Key })
			_, err := fmt.Fprintf(w, "ocd_build_info%s 1\n", formatLabels(all))
			return err
		},
	})
	for name, v := range s.Counters {
		v := v
		fams = append(fams, promFamily{
			name: sanitizeMetricName(name),
			typ:  "counter",
			emit: func(w io.Writer, labels string, _ []Label) error {
				_, err := fmt.Fprintf(w, "%s%s %d\n", sanitizeMetricName(name), labels, v)
				return err
			},
		}) // fams is sorted by name below
	}
	for name, v := range s.Gauges {
		v := v
		fams = append(fams, promFamily{
			name: sanitizeMetricName(name),
			typ:  "gauge",
			emit: func(w io.Writer, labels string, _ []Label) error {
				_, err := fmt.Fprintf(w, "%s%s %d\n", sanitizeMetricName(name), labels, v)
				return err
			},
		}) // fams is sorted by name below
	}
	for name, hs := range s.Histograms {
		hs := hs
		fams = append(fams, promFamily{
			name: sanitizeMetricName(name),
			typ:  "histogram",
			emit: func(w io.Writer, _ string, labelSet []Label) error {
				return emitHistogram(w, sanitizeMetricName(name), hs, labelSet)
			},
		}) // fams is sorted by name below
	}
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		if err := f.emit(w, rendered, labels); err != nil {
			return err
		}
	}
	return nil
}

// emitHistogram writes the cumulative bucket, sum and count samples of
// one histogram. The registry's buckets are per-bucket counts with
// inclusive upper bounds; the exposition format wants cumulative counts
// keyed by `le`, with the overflow bucket as `le="+Inf"` (whose value
// therefore equals `_count`).
func emitHistogram(w io.Writer, name string, hs HistogramSnapshot, constLabels []Label) error {
	var cum int64
	for i, bound := range hs.Bounds {
		cum += hs.Counts[i]
		ls := append(append([]Label(nil), constLabels...), Label{Key: "le", Value: fmt.Sprintf("%d", bound)})
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, formatLabels(ls), cum); err != nil {
			return err
		}
	}
	if len(hs.Counts) > len(hs.Bounds) {
		cum += hs.Counts[len(hs.Bounds)]
	}
	ls := append(append([]Label(nil), constLabels...), Label{Key: "le", Value: "+Inf"})
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, formatLabels(ls), cum); err != nil {
		return err
	}
	rendered := formatLabels(constLabels)
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, rendered, hs.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, rendered, hs.Count)
	return err
}

// WantsPrometheus reports whether the request asked for the text
// exposition format: `?format=prometheus` (explicit, wins over headers)
// or an Accept header preferring text/plain — what `prometheus.yml`
// scrapers and `curl -H 'Accept: text/plain'` send. The default stays
// the JSON snapshot, so existing tooling keeps working unchanged.
func WantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "application/json") {
		return false
	}
	return strings.Contains(accept, "text/plain")
}

// WriteMetricsHTTP serves reg on a /metrics endpoint with content
// negotiation: Prometheus text format when WantsPrometheus, the
// indented JSON snapshot otherwise. Both servers (obs.ServeDebug and
// the jobs API) route their /metrics through here so the two surfaces
// cannot drift.
func WriteMetricsHTTP(w http.ResponseWriter, r *http.Request, reg *Registry, constLabels ...Label) {
	if WantsPrometheus(r) {
		w.Header().Set("Content-Type", PromContentType)
		reg.WritePrometheus(w, constLabels...) // lint:allow errdrop — client went away; nothing to do
		return
	}
	w.Header().Set("Content-Type", "application/json")
	reg.WriteJSON(w) // lint:allow errdrop — client went away; nothing to do
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ocd"
	"ocd/internal/attr"
	"ocd/internal/datagen"
	"ocd/internal/relation"
)

// toyWorkloads shrinks the row-heavy and lattice-heavy datasets and
// HORSE's columns so every workload runs in seconds, under the race
// detector too. TAXINFO keeps its full size.
func toyWorkloads() []workload {
	ws := workloads(500)
	for i := range ws {
		switch ws[i].name {
		case "hepatitis-lattice":
			ws[i].gen = func() *relation.Relation {
				return datagen.Hepatitis().Project([]attr.ID{0, 1, 2, 3, 4, 5, 9, 10, 14, 18})
			}
		case "serve-horse":
			ws[i].gen = func() *relation.Relation {
				return datagen.Horse().Project([]attr.ID{0, 1, 2, 3, 4, 5, 6, 7})
			}
		}
	}
	return ws
}

// toyConfig runs the fewest ops each phase allows. Its reference clock
// reads a constant instead of running the reference loop, which takes
// longer than a toy op, and far longer under the race detector.
func toyConfig(t *testing.T) runConfig {
	return runConfig{seed: 7, window: time.Millisecond, dataDir: t.TempDir(), setupReps: 2, minOps: 1, warmup: time.Millisecond,
		refSample: func() float64 { return refNominal }}
}

func toyExpected(t *testing.T, w workload) outcome {
	t.Helper()
	o, err := libraryOutcome(w.gen())
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// The catalogue the harness emits and BENCHMARK.json must not drift.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads(1) {
		want = append(want, w.name)
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, want)
	}
	compare := func(kind string, got, listed []metric) {
		if len(got) != len(listed) {
			t.Errorf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(got), len(listed))
			return
		}
		for i := range got {
			if got[i] != listed[i] {
				t.Errorf("%s metric %d: harness %v, BENCHMARK.json %v", kind, i, got[i], listed[i])
			}
		}
	}
	var e2e, layer []metric
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metric{m.Name, m.Unit})
	}
	compare("end_to_end", endToEndMetrics, e2e)
	compare("per_layer", perLayerMetrics, layer)
}

// The small service datasets are cheap enough to recheck expected.json
// at full size; the bench rechecks the others on every op.
func TestExpectedServiceOutcomes(t *testing.T) {
	expected, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads(1) {
		if !w.service {
			continue
		}
		if got := toyExpected(t, w); got != expected[w.name] {
			t.Errorf("%s: library finds %+v, expected.json says %+v", w.name, got, expected[w.name])
		}
	}
}

// Discovery does not depend on row order, so every seed expects the same
// result.
func TestOutcomeInvariantUnderPermutation(t *testing.T) {
	for _, w := range toyWorkloads() {
		rel := w.gen()
		want := toyExpected(t, w)
		for op := int64(0); op < 3; op++ {
			data, err := permutedCSV(rel, 11, op)
			if err != nil {
				t.Fatal(err)
			}
			r, err := discover(context.Background(), data, rel.Name, ocd.Options{Workers: libraryWorkers}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.outcome != want {
				t.Errorf("%s permutation %d: %+v, canonical order %+v", w.name, op, r.outcome, want)
			}
		}
	}
}

// resultOf renders a report the way a run prints it and reads back the
// JSON line.
func resultOf(t *testing.T, name string, catalogue []metric, rep report) resultOut {
	t.Helper()
	var buf bytes.Buffer
	if err := writeResult(&buf, name, catalogue, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(catalogue)+1 {
		t.Fatalf("%s: %d output lines, want %d metrics and the result", name, len(lines), len(catalogue))
	}
	var out resultOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d; failures %v", name, out.Correct, out.Attempted, out.Failed, rep.failures)
	}
	if len(out.Metrics) != len(catalogue) {
		t.Errorf("%s: %d metrics in the result, want %d", name, len(out.Metrics), len(catalogue))
	}
	return out
}

// Every workload runs end to end at toy scale: library ops match the
// expected result, every job's result document matches the library's,
// and the client's job counts match the server's.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range toyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			rep, err := endToEnd(context.Background(), w, toyConfig(t), toyExpected(t, w))
			if err != nil {
				t.Fatal(err)
			}
			out := resultOf(t, w.name, endToEndMetrics, rep)
			for _, m := range endToEndMetrics {
				if v := out.Metrics[m.name].Value; !(v > 0) {
					t.Errorf("%s %s = %v, want > 0", w.name, m.name, v)
				}
			}
		})
	}
}

// The traced run reports every per-layer metric on every workload and
// writes a Chrome trace that holds the engine's spans and, on service
// workloads, the job server's own.
func TestWorkloadsTraced(t *testing.T) {
	for _, w := range toyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			cfg := toyConfig(t)
			chrome := filepath.Join(cfg.dataDir, "trace.json")
			rep, err := traced(context.Background(), w, cfg, toyExpected(t, w), chrome)
			if err != nil {
				t.Fatal(err)
			}
			resultOf(t, w.name, perLayerMetrics, rep)
			data, err := os.ReadFile(chrome)
			if err != nil {
				t.Fatal(err)
			}
			var ct chromeTrace
			if err := json.Unmarshal(data, &ct); err != nil {
				t.Fatal(err)
			}
			var jobSpans, discoverSpans int
			for _, ev := range ct.TraceEvents {
				if strings.HasPrefix(ev.Name, "job:") {
					jobSpans++
				}
				if ev.Name == "discover" {
					discoverSpans++
				}
			}
			if discoverSpans == 0 || (jobSpans == 0) == w.service {
				t.Errorf("chrome trace has %d job spans and %d discover spans (service workload: %v)", jobSpans, discoverSpans, w.service)
			}
		})
	}
}

package core

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"ocd/internal/obs"
	"ocd/internal/relation"
)

// mixedRelation has correlated columns plus a modular one that breaks
// order compatibility, so runs over it exercise both emissions and
// prunes.
func mixedRelation(t *testing.T, rows int) *relation.Relation {
	t.Helper()
	data := make([][]int, rows)
	for i := range data {
		data[i] = []int{i / 2, i / 5, i % 7, i / 11}
	}
	r, err := relation.FromIntsErr("mixed", nil, data)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMetricsWiring(t *testing.T) {
	r := mixedRelation(t, 60)
	reg := obs.NewRegistry()
	res := Discover(r, Options{Workers: 2, Metrics: reg})
	if res.Stats.Truncated {
		t.Fatalf("unexpected truncation: %+v", res.Stats)
	}
	s := reg.Snapshot()

	if got := s.Counters[MetricChecks]; got != res.Stats.Checks {
		t.Errorf("%s = %d, Stats.Checks = %d", MetricChecks, got, res.Stats.Checks)
	}
	if got := s.Counters[MetricCandidates]; got != res.Stats.Candidates {
		t.Errorf("%s = %d, Stats.Candidates = %d", MetricCandidates, got, res.Stats.Candidates)
	}
	if got := s.Counters[MetricLevels]; got != int64(res.Stats.Levels) {
		t.Errorf("%s = %d, Stats.Levels = %d", MetricLevels, got, res.Stats.Levels)
	}
	if got := s.Counters[MetricOCDs]; got != int64(len(res.OCDs)) {
		t.Errorf("%s = %d, len(OCDs) = %d", MetricOCDs, got, len(res.OCDs))
	}
	if got := s.Counters[MetricODs]; got != int64(len(res.ODs)) {
		t.Errorf("%s = %d, len(ODs) = %d", MetricODs, got, len(res.ODs))
	}
	if got := s.Counters[MetricPrunes]; got <= 0 || got != res.Stats.Prunes {
		t.Errorf("%s = %d, Stats.Prunes = %d, want equal and > 0 on this dataset", MetricPrunes, got, res.Stats.Prunes)
	}
	if h := s.Histograms[MetricCheckLatency]; h.Count <= 0 {
		t.Errorf("%s recorded no observations", MetricCheckLatency)
	}
	if h := s.Histograms[MetricLevelCandidates]; h.Count != int64(res.Stats.Levels) {
		t.Errorf("%s count = %d, want one per level (%d)", MetricLevelCandidates, h.Count, res.Stats.Levels)
	}
	if h := s.Histograms[MetricWorkerBusy]; h.Count != int64(res.Stats.Levels*2) {
		t.Errorf("%s count = %d, want workers x levels = %d", MetricWorkerBusy, h.Count, res.Stats.Levels*2)
	}
	hits, misses := s.Counters[MetricIndexCacheHits], s.Counters[MetricIndexCacheMisses]
	if hits+misses == 0 {
		t.Error("index cache recorded no lookups")
	}
}

func TestTraceSpans(t *testing.T) {
	r := correlatedRelation(t, 60)
	tr := obs.NewTracer("run")
	res := Discover(r, Options{Workers: 2, Trace: tr.Root()})
	tr.Finish()

	tree := tr.Tree()
	if len(tree.Children) != 1 || tree.Children[0].Name != "discover" {
		t.Fatalf("expected one discover span under root, got %+v", tree.Children)
	}
	disc := tree.Children[0]
	if disc.Attrs["checks"] != res.Stats.Checks {
		t.Errorf("discover span checks attr = %d, want %d", disc.Attrs["checks"], res.Stats.Checks)
	}
	if len(disc.Children) == 0 || disc.Children[0].Name != "reduction" {
		t.Fatalf("first child of discover should be reduction, got %+v", disc.Children)
	}
	levels := disc.Children[1:]
	if len(levels) != res.Stats.Levels {
		t.Fatalf("level spans = %d, Stats.Levels = %d", len(levels), res.Stats.Levels)
	}
	if levels[0].Name != "level 2" {
		t.Errorf("first level span named %q", levels[0].Name)
	}
	if len(levels[0].Children) != 2 {
		t.Errorf("level 2 has %d worker spans, want 2", len(levels[0].Children))
	}
	for _, w := range levels[0].Children {
		if w.Lane < 1 {
			t.Errorf("worker span %q on lane %d, want >= 1", w.Name, w.Lane)
		}
	}
	var checksTotal int64
	for _, lv := range levels {
		checksTotal += lv.Attrs["checks"]
	}
	checksTotal += disc.Children[0].Attrs["checks"] // reduction
	if checksTotal != res.Stats.Checks {
		t.Errorf("per-span checks sum %d, Stats.Checks %d", checksTotal, res.Stats.Checks)
	}
}

// collectingReporter accumulates progress samples concurrency-safely.
type collectingReporter struct {
	mu      sync.Mutex
	samples []obs.Progress
}

func (c *collectingReporter) Report(p obs.Progress) {
	c.mu.Lock()
	c.samples = append(c.samples, p)
	c.mu.Unlock()
}

func TestReporterSamples(t *testing.T) {
	r := correlatedRelation(t, 60)
	rep := &collectingReporter{}
	res := Discover(r, Options{Workers: 2, Reporter: rep, ReportEvery: 10})
	if len(rep.samples) < res.Stats.Levels+1 {
		t.Fatalf("got %d samples, want at least one per level plus final (%d)",
			len(rep.samples), res.Stats.Levels+1)
	}
	last := rep.samples[len(rep.samples)-1]
	if !last.Final {
		t.Error("last sample not marked Final")
	}
	if last.Checks != res.Stats.Checks {
		t.Errorf("final sample checks = %d, Stats.Checks = %d", last.Checks, res.Stats.Checks)
	}
	for i, p := range rep.samples[:len(rep.samples)-1] {
		if p.Final {
			t.Errorf("sample %d marked Final before the end", i)
		}
		if p.Level < 2 {
			t.Errorf("sample %d has level %d", i, p.Level)
		}
	}
	// With ReportEvery=10 there must be mid-level samples beyond the
	// barrier ones.
	if len(rep.samples) <= res.Stats.Levels+1 {
		t.Errorf("no mid-level samples at ReportEvery=10: %d samples, %d levels",
			len(rep.samples), res.Stats.Levels)
	}
}

// TestResumeMetricsContinuity is the satellite contract: a crash+resume
// run's registry must report the same deterministic counter totals as an
// uninterrupted run's.
func TestResumeMetricsContinuity(t *testing.T) {
	r := correlatedRelation(t, 60)

	freshReg := obs.NewRegistry()
	fresh := Discover(r, Options{Metrics: freshReg})
	if fresh.Stats.Levels < 3 {
		t.Fatalf("dataset too shallow: %d levels", fresh.Stats.Levels)
	}

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	partReg := obs.NewRegistry()
	part := Discover(r, Options{MaxLevel: 2, CheckpointPath: ckpt, Metrics: partReg})
	if !part.Stats.Truncated {
		t.Fatalf("expected truncation, got %+v", part.Stats)
	}

	snap := loadSnapshot(t, ckpt)
	if snap.Metrics == nil {
		t.Fatal("snapshot carries no metrics record")
	}
	resReg := obs.NewRegistry()
	resumed, err := DiscoverContext(context.Background(), r, Options{Resume: snap, Metrics: resReg})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	assertSameDiscovery(t, fresh, resumed)

	f, g := freshReg.Snapshot(), resReg.Snapshot()
	for _, key := range []string{MetricChecks, MetricCandidates, MetricLevels,
		MetricOCDs, MetricODs, MetricPrunes} {
		if f.Counters[key] != g.Counters[key] {
			t.Errorf("%s: fresh %d, crash+resume %d", key, f.Counters[key], g.Counters[key])
		}
	}
}

// TestPriorElapsed is the Stats.PriorElapsed satellite: a resumed run
// exposes the original run's elapsed time instead of silently dropping it.
func TestPriorElapsed(t *testing.T) {
	r := correlatedRelation(t, 60)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	part := Discover(r, Options{MaxLevel: 2, CheckpointPath: ckpt})
	if !part.Stats.Truncated {
		t.Fatalf("expected truncation, got %+v", part.Stats)
	}
	if part.Stats.PriorElapsed != 0 {
		t.Errorf("fresh run has PriorElapsed %v", part.Stats.PriorElapsed)
	}

	snap := loadSnapshot(t, ckpt)
	if snap.ElapsedNanos <= 0 {
		t.Fatalf("snapshot ElapsedNanos = %d, want > 0", snap.ElapsedNanos)
	}
	resumed, err := DiscoverContext(context.Background(), r, Options{Resume: snap})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := resumed.Stats.PriorElapsed.Nanoseconds(); got != snap.ElapsedNanos {
		t.Errorf("PriorElapsed = %dns, snapshot recorded %dns", got, snap.ElapsedNanos)
	}
	if resumed.Stats.Elapsed <= 0 {
		t.Error("resumed run has zero Elapsed")
	}

	// A second-generation resume accumulates: its snapshot's elapsed must
	// cover both earlier runs.
	ckpt2 := filepath.Join(t.TempDir(), "run2.ckpt")
	mid, err := DiscoverContext(context.Background(), r,
		Options{Resume: snap, MaxLevel: 3, CheckpointPath: ckpt2})
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if !mid.Stats.Truncated {
		t.Skip("tree exhausted before level 3; nothing to chain")
	}
	snap2 := loadSnapshot(t, ckpt2)
	if snap2.ElapsedNanos < snap.ElapsedNanos {
		t.Errorf("chained snapshot elapsed %d < first snapshot %d", snap2.ElapsedNanos, snap.ElapsedNanos)
	}
}

// TestObsDisabledIsDefault pins that a plain run allocates no runObs and
// the hooks stay nil-safe end to end.
func TestObsDisabledIsDefault(t *testing.T) {
	d := newDiscoverer(correlatedRelation(t, 20), Options{})
	if d.ro != nil {
		t.Fatal("runObs allocated with observability disabled")
	}
	res := Discover(correlatedRelation(t, 40), Options{})
	if res.Stats.Checks == 0 {
		t.Fatal("run did nothing")
	}
}

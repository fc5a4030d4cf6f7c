package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ocd"
	"ocd/internal/obs"
)

// tracedRun gathers one workload's per-layer metrics. The benchmark
// records its own spans around each call into a layer; the engine's
// existing spans nest under them (Options.Trace and WithTrace in the
// library, GET /jobs/{id}/trace in the service). No span or counter is
// added inside the program.
type tracedRun struct {
	e      *env
	tr     *obs.Tracer
	epoch  time.Time // the tracer's epoch, to place imported job traces
	clock  *refClock
	rep    *report
	values map[string]float64

	libUntraced, libTraced []libraryRun // Workers: 2
	libSerial              []libraryRun // Workers: 1, traced
	reg                    *ocd.Metrics // registry of the last traced library op

	jobsTraced                     []*jobRun
	untracedLatency, tracedLatency []float64 // seconds per service op
	jobsAttempted                  int
	refused                        int64
}

// traced runs the workload once with tracing on and derives the
// per-layer metrics. With chromePath set it writes the spans there as a
// Chrome trace.
func traced(ctx context.Context, w workload, cfg runConfig, want outcome, chromePath string) (rep report, err error) {
	rep.values = make(map[string]float64)
	e, err := setup(ctx, w, cfg, want, 0)
	if err != nil {
		return rep, fmt.Errorf("set-up: %w", err)
	}
	defer func() { err = errors.Join(err, e.close()) }()
	t := &tracedRun{e: e, epoch: time.Now(), tr: obs.NewTracer("bench " + w.name), clock: newRefClock(w.refSample(cfg)), rep: &rep, values: rep.values}

	for _, p := range []struct {
		name string
		run  func(context.Context) error
	}{
		{"library", t.library},
		{"service", t.service},
		{"probe.relation", t.relationProbe},
		{"probe.order", t.orderProbe},
		{"probe.checkpoint", t.checkpointProbe},
	} {
		if err := t.phase(ctx, p.name, p.run); err != nil {
			return rep, err
		}
	}
	t.tr.Finish()
	if chromePath != "" {
		return rep, t.writeChrome(chromePath)
	}
	return rep, nil
}

// phase runs one part of the traced run under a span of its own, then
// rescales the timings and rates it reported to reference speed (see
// refClock).
func (t *tracedRun) phase(ctx context.Context, name string, run func(context.Context) error) error {
	before := make(map[string]bool, len(t.values))
	for _, m := range perLayerMetrics {
		_, before[m.name] = t.values[m.name]
	}
	sp := t.tr.Root().StartChild(name)
	err := run(ctx)
	sp.End()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	k := t.clock.tick()
	for _, m := range perLayerMetrics {
		v, ok := t.values[m.name]
		if !ok || before[m.name] {
			continue
		}
		switch m.unit {
		case "s", "ms", "us":
			t.values[m.name] = v * k
		case "1/s", "MiB/s":
			t.values[m.name] = v / k
		}
	}
	return nil
}

// library runs rounds of three library ops for half the window: untraced
// and traced with two workers, and traced with one, the Figure 6 point a
// two-core box supports. Interleaving them keeps a drift in the host's
// speed out of the ratios between them.
func (t *tracedRun) library(ctx context.Context) error {
	cfg := t.e.cfg
	deadline := time.Now().Add(cfg.window / 2)
	for op := int64(0); ctx.Err() == nil && (op < 3*int64(cfg.minOps) || time.Now().Before(deadline)); op += 3 {
		if r, ok := t.libraryOp(ctx, op, libraryWorkers, false); ok {
			t.libUntraced = append(t.libUntraced, r)
		}
		if r, ok := t.libraryOp(ctx, op+1, libraryWorkers, true); ok {
			t.libTraced = append(t.libTraced, r)
		}
		if r, ok := t.libraryOp(ctx, op+2, 1, true); ok {
			t.libSerial = append(t.libSerial, r)
		}
	}
	if len(t.libTraced) == 0 || len(t.libUntraced) == 0 || len(t.libSerial) == 0 {
		return fmt.Errorf("no library op of some kind completed: %w", errors.Join(t.rep.failures...))
	}
	t.libraryMetrics()
	t.spanMetrics()
	return nil
}

func (t *tracedRun) libraryOp(ctx context.Context, op int64, workers int, traced bool) (libraryRun, bool) {
	t.rep.attempted++
	var span *ocd.Span
	var reg *ocd.Metrics
	if traced {
		span, reg = t.tr.Root().StartChild("op"), ocd.NewMetrics()
	}
	r, err := t.e.libraryOp(ctx, op, workers, span, reg)
	span.End()
	if err != nil {
		t.rep.failures = append(t.rep.failures, err)
		return r, false
	}
	if traced && workers == libraryWorkers {
		t.reg = reg
	}
	return r, true
}

// service runs the closed loop for a quarter window untraced, then for a
// quarter window traced. Library workloads send no jobs, so their
// service-layer metrics read 0.
func (t *tracedRun) service(ctx context.Context) error {
	e := t.e
	if !e.w.service {
		t.jobMetrics()
		return nil
	}
	var next atomic.Int64
	next.Store(1 << 20) // op numbers apart from the library ops'
	untraced := e.closedLoop(ctx, serviceClients, e.cfg.window/4, &next, nil)
	traced := e.closedLoop(ctx, serviceClients, e.cfg.window/4, &next, t.tr.Root())
	t.untracedLatency, t.tracedLatency, t.jobsTraced = untraced.latency, traced.latency, traced.runs
	t.jobsAttempted = len(untraced.latency) + len(untraced.failures) + len(traced.latency) + len(traced.failures)
	t.rep.attempted += t.jobsAttempted
	t.rep.failures = append(t.rep.failures, untraced.failures...)
	t.rep.failures = append(t.rep.failures, traced.failures...)
	if err := e.svc.checkCounters(ctx); err != nil {
		t.rep.failures = append(t.rep.failures, err)
	}
	if len(t.jobsTraced) == 0 {
		return fmt.Errorf("no traced job completed: %w", errors.Join(t.rep.failures...))
	}
	t.refused = e.svc.refused.Load()
	t.jobMetrics()
	return nil
}

func durations(runs []libraryRun, f func(libraryRun) time.Duration) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = f(r).Seconds()
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// libraryMetrics reads the relation and core counts and timings of the
// traced library ops.
func (t *tracedRun) libraryMetrics() {
	v := t.values
	last := t.libTraced[len(t.libTraced)-1].stats
	discover := func(r libraryRun) time.Duration { return r.discover }
	disc := median(durations(t.libTraced, discover))
	v["relation.load_s.p50"] = median(durations(t.libTraced, func(r libraryRun) time.Duration { return r.load }))
	v["core.discover_s.p50"] = disc
	v["core.checks"] = float64(last.Checks)
	v["core.candidates"] = float64(last.Candidates)
	v["core.levels"] = float64(last.Levels)
	v["core.checks_per_s"] = ratio(float64(last.Checks), disc)
	v["core.parallel_speedup"] = ratio(median(durations(t.libSerial, discover)), disc)

	snap := t.reg.Snapshot()
	v["core.prunes"] = float64(snap.Counters["discover.prunes"])
	hits, misses := float64(snap.Counters["order.index_cache.hits"]), float64(snap.Counters["order.index_cache.misses"])
	v["order.index_cache_hit_ratio"] = ratio(hits, hits+misses)

	if !t.e.w.service {
		total := func(r libraryRun) time.Duration { return r.total() }
		v["obs.trace_overhead_frac"] = median(durations(t.libTraced, total))/median(durations(t.libUntraced, total)) - 1
	}
}

// spanMetrics derives level and self-time figures from the span tree of
// the traced Workers: 2 library ops.
func (t *tracedRun) spanMetrics() {
	var reduction, levelMax []float64
	var idle, capacity float64
	self := make(map[string]float64)
	for _, op := range t.tr.Tree().Children {
		disc := child(child(op, "core.DiscoverContext"), "discover")
		if op.Name != "op" || op.Attrs["workers"] != libraryWorkers || disc == nil {
			continue
		}
		addSelf(op, self)
		if red := child(disc, "reduction"); red != nil {
			reduction = append(reduction, float64(red.DurNS)/1e9)
		}
		var longest int64
		for _, lv := range disc.Children {
			if !strings.HasPrefix(lv.Name, "level ") {
				continue
			}
			longest = max(longest, lv.DurNS)
			for _, wk := range lv.Children {
				if strings.HasPrefix(wk.Name, "worker ") {
					idle += float64(lv.DurNS - wk.DurNS)
					capacity += float64(lv.DurNS)
				}
			}
		}
		levelMax = append(levelMax, float64(longest)/1e9)
	}
	v := t.values
	v["core.reduction_s"] = median(reduction)
	v["core.level_max_s"] = median(levelMax)
	v["core.barrier_idle_frac"] = ratio(idle, capacity)
	// Parallel worker spans overlap, so self times add up to more than the
	// ops' wall time; each layer's share is of their sum.
	all := self["relation"] + self["order"] + self["core"] + self["bench"]
	for _, layer := range []string{"relation", "order", "core"} {
		v[layer+".self_frac"] = ratio(self[layer], all)
	}
}

func child(n *obs.SpanNode, name string) *obs.SpanNode {
	if n == nil {
		return nil
	}
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// layerOf maps a span to the module whose work it times. Worker batches
// are the order checks plus the candidate generation between them; the
// checks dominate, so they count as order.
func layerOf(name string) string {
	switch {
	case name == "parse", name == "rank-encode", strings.HasPrefix(name, "relation."):
		return "relation"
	case strings.HasPrefix(name, "worker "):
		return "order"
	case name == "discover", name == "reduction", strings.HasPrefix(name, "level "), strings.HasPrefix(name, "core."):
		return "core"
	}
	return "bench"
}

// addSelf adds each span's self time, its duration minus the part of it
// its children cover, to its layer's total.
func addSelf(n *obs.SpanNode, acc map[string]float64) {
	type iv struct{ from, to int64 }
	ivs := make([]iv, 0, len(n.Children))
	for _, c := range n.Children {
		ivs = append(ivs, iv{c.StartNS, c.StartNS + c.DurNS})
		addSelf(c, acc)
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
	var covered, reach int64 = 0, n.StartNS
	for _, x := range ivs {
		from, to := max(x.from, reach), min(x.to, n.StartNS+n.DurNS)
		if to > from {
			covered += to - from
			reach = to
		}
	}
	acc[layerOf(n.Name)] += float64(n.DurNS - covered)
}

// chromeEvent is one complete event of the Chrome trace_event format.
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// jobRootUS is the duration of a job trace's attempt span, "job:<name>".
func jobRootUS(events []chromeEvent) float64 {
	for _, ev := range events {
		if strings.HasPrefix(ev.Name, "job:") {
			return ev.Dur
		}
	}
	return 0
}

// jobMetrics derives the spill, checkpoint, jobs and obs metrics from
// the traced jobs and their result documents; with no jobs they read 0.
func (t *tracedRun) jobMetrics() {
	v := t.values
	runs := t.jobsTraced
	each := func(f func(r *jobRun) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	ms := func(from, to func(r *jobRun) time.Time) float64 {
		return each(func(r *jobRun) float64 { return float64(to(r).Sub(from(r))) / 1e6 })
	}
	v["jobs.submit_ms.p50"] = ms(func(r *jobRun) time.Time { return r.start }, func(r *jobRun) time.Time { return r.submitted })
	v["jobs.queue_wait_ms.p50"] = ms(func(r *jobRun) time.Time { return r.submitted }, func(r *jobRun) time.Time { return r.running })
	v["jobs.run_ms.p50"] = ms(func(r *jobRun) time.Time { return r.running }, func(r *jobRun) time.Time { return r.finished })
	v["jobs.result_ms.p50"] = ms(func(r *jobRun) time.Time { return r.finished }, func(r *jobRun) time.Time { return r.resulted })
	v["jobs.delete_ms.p50"] = ms(func(r *jobRun) time.Time { return r.deleting }, func(r *jobRun) time.Time { return r.deleted })
	v["jobs.state_events_per_job"] = each(func(r *jobRun) float64 { return float64(r.stateEvents) })
	// Manifest at submission, one per state change, checkpoints, spill
	// segments, the result document and the trace file: every write the
	// job fsyncs.
	v["jobs.durable_writes_per_job"] = each(func(r *jobRun) float64 {
		return float64(1 + r.stateEvents + r.checkpoints + int(r.evictions) + 2)
	})
	v["jobs.rejected_frac"] = ratio(float64(t.refused), float64(t.jobsAttempted))
	v["spill.evictions_per_job"] = each(func(r *jobRun) float64 { return float64(r.evictions) })
	v["spill.reloads_per_job"] = each(func(r *jobRun) float64 { return float64(r.reloads) })
	v["checkpoint.writes_per_job"] = each(func(r *jobRun) float64 { return float64(r.checkpoints) })
	v["obs.progress_events_per_job"] = each(func(r *jobRun) float64 { return float64(r.progressEvents) })
	v["obs.job_trace_kb"] = each(func(r *jobRun) float64 { return float64(len(r.trace)) / 1024 })

	var evictions, reloads, latency, engine float64
	for _, r := range runs {
		evictions += float64(r.evictions)
		reloads += float64(r.reloads)
		var jt chromeTrace
		if err := json.Unmarshal(r.trace, &jt); err != nil {
			t.rep.failures = append(t.rep.failures, fmt.Errorf("job %s trace: %w", r.id, err))
			continue
		}
		latency += float64(r.latency().Microseconds())
		engine += jobRootUS(jt.TraceEvents)
	}
	v["spill.reload_ratio"] = ratio(reloads, evictions)
	// What the op waits for beyond the attempt itself: HTTP, admission,
	// queueing, manifest writes and the event stream.
	v["jobs.self_frac"] = ratio(latency-engine, latency)
	if t.e.w.service {
		v["obs.trace_overhead_frac"] = median(t.tracedLatency)/median(t.untracedLatency) - 1
	}
}

// writeChrome writes the benchmark's spans, with each traced job's own
// trace placed where the client saw the job start running, as one Chrome
// trace.
func (t *tracedRun) writeChrome(path string) error {
	var events []chromeEvent
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		events = append(events, chromeEvent{Name: n.Name, Ph: "X", TS: float64(n.StartNS) / 1e3,
			Dur: float64(n.DurNS) / 1e3, PID: 1, TID: n.Lane + 1, Args: n.Attrs})
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.tr.Tree())
	for _, r := range t.jobsTraced {
		var jt chromeTrace
		if err := json.Unmarshal(r.trace, &jt); err != nil {
			return fmt.Errorf("job %s trace: %w", r.id, err)
		}
		shift := float64(r.running.Sub(t.epoch).Nanoseconds()) / 1e3
		for _, ev := range jt.TraceEvents {
			ev.TS += shift
			ev.PID, ev.TID = 2, 100*r.lane+ev.TID
			events = append(events, ev)
		}
	}
	data, err := json.Marshal(chromeTrace{TraceEvents: events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

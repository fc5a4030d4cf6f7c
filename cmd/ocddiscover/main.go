// Command ocddiscover runs OCDDISCOVER on a CSV file and prints the
// discovered order dependencies, order compatibility dependencies and
// column reductions, together with execution statistics.
//
// Usage:
//
//	ocddiscover -input data.csv [-workers 8] [-timeout 5h] [-sep ';']
//	            [-no-header] [-force-string] [-max-level 0]
//	            [-top-entropy 0] [-expand 20] [-partial-ok]
//	            [-checkpoint run.ckpt] [-resume run.ckpt]
//	            [-max-memory-bytes 0]
//	            [-progress] [-metrics-out m.json] [-trace-out t.json]
//	            [-trace-tree-out tree.json] [-debug-addr :6060]
//
// -max-memory-bytes sets a soft heap budget: over it the engine drops its
// cached rank vectors and recomputes them on demand, and truncates (reason
// "memory-budget") when even that release leaves the heap over budget.
//
// -progress renders a live status line (level, frontier, checks/s, cache hit
// rate, ETA) on stderr. -metrics-out dumps the run's metrics registry as
// JSON; -trace-out writes a Chrome trace_event file loadable in
// chrome://tracing or Perfetto; -trace-tree-out writes the same spans as a
// nested JSON tree. -debug-addr serves /debug/pprof, /debug/vars and
// /metrics for the duration of the run (Prometheus text with
// ?format=prometheus or an Accept: text/plain header, JSON otherwise).
// Operational warnings are structured log/slog records on stderr;
// -log-format selects text or json, -log-level the threshold.
//
// Interrupting a run (Ctrl-C / SIGINT / SIGTERM) still prints the partial
// summary of everything found so far. With -checkpoint the run is also
// durable: a snapshot is written at every completed level, and after a
// truncation, interrupt or crash the printed resume command (also in the
// JSON output as resume_command) restarts it from the last completed level.
//
// Exit codes: 0 complete (or partial with -partial-ok), 1 error,
// 2 usage, 3 partial results (truncated or interrupted).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ocd"
	"ocd/internal/depfile"
	"ocd/internal/faultinject"
	"ocd/internal/obs"
)

// exitPartial is the exit code for a truncated or interrupted run whose
// partial results were still printed.
const exitPartial = 3

func main() {
	var (
		input       = flag.String("input", "", "CSV file to profile (required)")
		workers     = flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
		timeout     = flag.Duration("timeout", 0, "wall-clock limit, e.g. 5h (0 = none)")
		sep         = flag.String("sep", ",", "field separator")
		noHeader    = flag.Bool("no-header", false, "first record is data, not column names")
		forceString = flag.Bool("force-string", false, "disable type inference, order lexicographically")
		maxLevel    = flag.Int("max-level", 0, "stop after this tree level (0 = none)")
		maxCand     = flag.Int64("max-candidates", 0, "stop after this many candidates (0 = none)")
		topEntropy  = flag.Int("top-entropy", 0, "profile only the n most diverse columns (0 = all)")
		expand      = flag.Int("expand", 0, "also print up to n expanded ODs")
		asJSON      = flag.Bool("json", false, "emit the result as JSON")
		depsOut     = flag.String("deps-out", "", "write discovered dependencies in odverify's format to this file")
		partialOK   = flag.Bool("partial-ok", false, "exit 0 instead of 3 when results are partial (truncated or interrupted)")
		maxMemory   = flag.Int64("max-memory-bytes", 0, "soft heap budget for discovery (0 = none)")
		ckptPath    = flag.String("checkpoint", "", "write a resumable snapshot to this file at every completed level")
		resumeFrom  = flag.String("resume", "", "restart from the snapshot at this path (input must be the original data)")
		progress    = flag.Bool("progress", false, "render a live status line on stderr (level, throughput, cache hit rate, ETA)")
		reportEvery = flag.Int64("report-every", 0, "progress sample cadence in checks (0 = default 10000)")
		metricsOut  = flag.String("metrics-out", "", "write the run's metrics registry as JSON to this file")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace_event file (chrome://tracing, Perfetto) to this path")
		traceTree   = flag.String("trace-tree-out", "", "write the span tree as JSON to this path")
		debugAddr   = flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /metrics on this address (e.g. :6060)")
		logFormat   = flag.String("log-format", "text", "operational log format: text or json")
		logLevel    = flag.String("log-level", "info", "operational log threshold: debug, info, warn or error")
	)
	flag.Parse()
	if *input == "" {
		fmt.Fprintln(os.Stderr, "ocddiscover: -input is required")
		flag.Usage()
		os.Exit(2)
	}
	// Operational warnings (checkpoint degradation, debug server) go
	// through slog so service wrappers can parse them; results stay on
	// stdout untouched.
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocddiscover:", err)
		flag.Usage()
		os.Exit(2)
	}
	// Let crash-driver scripts kill this process at an exact engine point
	// (faultinject builds only; a set OCD_FAULT on a plain build is an error).
	if err := faultinject.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "ocddiscover:", err)
		os.Exit(2)
	}
	// A resumed run keeps checkpointing to the snapshot it came from unless
	// told otherwise, so a second interruption is also resumable.
	if *resumeFrom != "" && *ckptPath == "" {
		*ckptPath = *resumeFrom
	}

	// Observability: one registry + tracer cover load and discovery; all of
	// it stays nil (and free) unless a flag asks for it.
	var metrics *ocd.Metrics
	if *metricsOut != "" || *debugAddr != "" || *progress {
		metrics = ocd.NewMetrics()
	}
	var tracer *ocd.Tracer
	if *traceOut != "" || *traceTree != "" {
		tracer = ocd.NewTracer("ocddiscover")
	}
	if *debugAddr != "" {
		bound, stop, err := ocd.ServeDebug(*debugAddr, metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ocddiscover:", err)
			os.Exit(1)
		}
		defer stop()
		logger.Info("debug server listening", "url", "http://"+bound+"/debug/pprof/")
	}

	opts := []ocd.LoadOption{}
	if *forceString {
		opts = append(opts, ocd.ForceString())
	}
	if *noHeader {
		opts = append(opts, ocd.NoHeader())
	}
	if len(*sep) > 0 && rune((*sep)[0]) != ',' {
		opts = append(opts, ocd.Delimiter(rune((*sep)[0])))
	}
	if tracer != nil {
		opts = append(opts, ocd.WithTrace(tracer.Root()))
	}
	tbl, err := ocd.LoadCSVFile(*input, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocddiscover:", err)
		os.Exit(1)
	}
	if !*asJSON {
		fmt.Printf("table %s: %d rows × %d columns\n", tbl.Name(), tbl.NumRows(), tbl.NumCols())
	}

	dopts := ocd.Options{
		Workers:        *workers,
		Timeout:        *timeout,
		MaxLevel:       *maxLevel,
		MaxCandidates:  *maxCand,
		MaxMemoryBytes: *maxMemory,
		CheckpointPath: *ckptPath,
		ResumeFrom:     *resumeFrom,
		Metrics:        metrics,
		ReportEvery:    *reportEvery,
	}
	if tracer != nil {
		dopts.Trace = tracer.Root()
	}
	if *progress {
		dopts.Reporter = ocd.NewProgressWriter(os.Stderr, 100*time.Millisecond)
	}
	if *topEntropy > 0 {
		dopts.Columns = tbl.TopEntropyColumns(*topEntropy)
		fmt.Printf("restricting to top-%d entropy columns: %v\n", *topEntropy, dopts.Columns)
	}

	// Ctrl-C cancels the discovery cooperatively: the run stops within
	// milliseconds and the partial results found so far are still printed.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	res, err := tbl.DiscoverContext(ctx, dopts)
	if res == nil {
		fmt.Fprintln(os.Stderr, "ocddiscover:", err)
		os.Exit(1)
	}
	if err != nil && errors.Is(err, ocd.ErrCheckpointMismatch) {
		// The snapshot belongs to different data or options: refuse the
		// resume outright rather than rediscovering from scratch.
		fmt.Fprintln(os.Stderr, "ocddiscover:", err)
		os.Exit(1)
	}
	if err != nil {
		// Partial run: report why on stderr, then print what was found.
		fmt.Fprintln(os.Stderr, "ocddiscover: partial results:", err)
	}

	// Export observability artifacts before printing results, so they exist
	// even if a later write fails. A partial run's trace and metrics are just
	// as useful as a complete one's.
	if tracer != nil {
		tracer.Finish()
	}
	if *metricsOut != "" {
		if err := writeArtifact(*metricsOut, metrics.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "ocddiscover:", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := writeArtifact(*traceOut, tracer.WriteChromeTrace); err != nil {
			fmt.Fprintln(os.Stderr, "ocddiscover:", err)
			os.Exit(1)
		}
	}
	if *traceTree != "" {
		if err := writeArtifact(*traceTree, tracer.WriteTree); err != nil {
			fmt.Fprintln(os.Stderr, "ocddiscover:", err)
			os.Exit(1)
		}
	}

	if *depsOut != "" {
		if err := writeArtifact(*depsOut, func(w io.Writer) error { return depfile.Write(w, res) }); err != nil {
			fmt.Fprintln(os.Stderr, "ocddiscover:", err)
			os.Exit(1)
		}
	}

	if *asJSON {
		// The library's result document, plus how to resume a truncated run.
		out := struct {
			ocd.ResultDoc
			CheckpointPath string `json:"checkpoint_path,omitempty"`
			ResumeCommand  string `json:"resume_command,omitempty"`
		}{ResultDoc: ocd.NewResultDoc(tbl, res, *expand)}
		if path, ok := resumableSnapshot(*ckptPath, res); ok {
			out.CheckpointPath = path
			out.ResumeCommand = resumeCommand(path)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "ocddiscover:", err)
			os.Exit(1)
		}
		exit(res, *partialOK)
		return
	}

	if len(res.ConstantColumns) > 0 {
		fmt.Printf("\nconstant columns (ordered by everything):\n")
		for _, c := range res.ConstantColumns {
			fmt.Printf("  %s\n", c)
		}
	}
	if len(res.EquivalentGroups) > 0 {
		fmt.Printf("\norder-equivalent column groups:\n")
		for _, g := range res.EquivalentGroups {
			fmt.Printf("  %v\n", g)
		}
	}
	fmt.Printf("\norder compatibility dependencies (%d):\n", len(res.OCDs))
	for _, d := range res.OCDs {
		fmt.Printf("  %s\n", d)
	}
	fmt.Printf("\norder dependencies (%d):\n", len(res.ODs))
	for _, d := range res.ODs {
		fmt.Printf("  %s\n", d)
	}
	if *expand > 0 {
		exp := res.ExpandODs(*expand)
		fmt.Printf("\nexpanded ODs (first %d of %d):\n", len(exp), res.CountODs())
		for _, d := range exp {
			fmt.Printf("  %s\n", d)
		}
	}
	fmt.Printf("\n%s\n", res.Summary())
	if res.Stats.CheckpointError != "" {
		logger.Warn("checkpointing disabled after write failure", "error", res.Stats.CheckpointError)
	}
	if path, ok := resumableSnapshot(*ckptPath, res); ok {
		fmt.Printf("\ncheckpoint: %s\nresume with: %s\n", path, resumeCommand(path))
	}
	exit(res, *partialOK)
}

// writeArtifact writes one output file (metrics JSON, trace, dependency
// file) via the given marshal function.
func writeArtifact(path string, marshal func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := marshal(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// resumableSnapshot reports whether the truncated run left a snapshot worth
// resuming from: checkpointing was on and the file exists (written by this
// run, or by the run this one resumed — both restart correctly from it).
func resumableSnapshot(path string, res *ocd.Result) (string, bool) {
	if path == "" || !res.Stats.Truncated {
		return "", false
	}
	if _, err := os.Stat(path); err != nil {
		return "", false
	}
	return path, true
}

// resumeCommand reconstructs the exact invocation that continues this run:
// every flag the user set, minus the checkpointing ones, plus -resume.
func resumeCommand(ckpt string) string {
	parts := []string{os.Args[0]}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "checkpoint" || f.Name == "resume" {
			return
		}
		parts = append(parts, fmt.Sprintf("-%s=%s", f.Name, f.Value.String()))
	})
	parts = append(parts, "-resume="+ckpt)
	return strings.Join(parts, " ")
}

// exit maps the run's outcome to the process exit code: 0 for a complete
// run, exitPartial for a truncated one unless -partial-ok opted back in.
func exit(res *ocd.Result, partialOK bool) {
	if res.Stats.Truncated && !partialOK {
		os.Exit(exitPartial)
	}
}

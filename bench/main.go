// Command bench is the repository's benchmark. It times what the paper's
// system is for, a CSV in and the verified minimal OCD/OD set out, end to
// end on four workloads: two through the library (ocd.LoadCSV then
// Table.DiscoverContext) and two as jobs of an in-process job server
// (internal/jobs) reached over loopback HTTP. A traced run adds
// per-layer metrics, timed around calls into each module from outside.
//
// Run it from the repository root with bench/run.sh, which builds it
// first:
//
//	bash bench/run.sh                                  every workload
//	bash bench/run.sh --workload serve-horse --seed 7  one workload
//	bash bench/run.sh --trace 1 --chrome trace.json    per-layer metrics
//
// Without --workload each workload runs in a fresh process, so its peak
// memory, garbage collector state and warm-up are its own. Every metric
// prints as "workload metric value unit"; each workload's output ends with
// one JSON line {"correct", "attempted", "failed", "metrics"}. Any op
// whose result differs from bench/expected.json, or any job refused or
// lost, makes the run incorrect and its exit status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runTimeout bounds one workload process, set-up included.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: each in its own process)")
	seed := fs.Int64("seed", 1, "workload seed: picks every op's row permutation")
	secs := fs.Int("seconds", 15, "length of the timed section (BENCHMARK.json's run_seconds, at which the baseline was taken)")
	trace := fs.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
	chrome := fs.String("chrome", "", "traced run: write the spans to this Chrome trace file")
	dataDir := fs.String("datadir", filepath.Join(".bench_build", "data"), "parent of the job server's data directory")
	writeExp := fs.String("write-expected", "", "write every workload's expected result to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws := workloads(200_000)
	if *writeExp != "" {
		if err := writeExpected(*writeExp, ws); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *name == "" {
		return runAll(ws, args, *chrome, stdout, stderr)
	}
	var w *workload
	for i := range ws {
		if ws[i].name == *name {
			w = &ws[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	expected, err := loadExpected()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(*dataDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg := runConfig{
		seed:        *seed,
		window:      time.Duration(*secs) * time.Second,
		dataDir:     *dataDir,
		setupReps:   3,
		setupBudget: time.Second,
		minOps:      3,
		warmup:      2 * time.Second,
		refSample:   refSample,
	}
	fmt.Fprintf(stdout, "# %s go=%s GOMAXPROCS=%d nproc=%d datadir_fs=%s seed=%d seconds=%d trace=%d\n",
		w.name, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), filesystemOf(*dataDir), *seed, *secs, *trace)

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	catalogue := endToEndMetrics
	var rep report
	if *trace == 1 {
		catalogue = perLayerMetrics
		rep, err = traced(ctx, *w, cfg, expected[w.name], *chrome)
	} else {
		rep, err = endToEnd(ctx, *w, cfg, expected[w.name])
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if rep.note != "" {
		fmt.Fprintf(stdout, "# %s %s\n", w.name, rep.note)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "bench: %s: FAIL %v\n", w.name, f)
	}
	if err := writeResult(stdout, w.name, catalogue, rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if len(rep.failures) > 0 {
		return 1
	}
	return 0
}

type valueOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]valueOut `json:"metrics"`
}

// writeResult prints every catalogue metric as a line, then the JSON
// result line.
func writeResult(w io.Writer, workload string, catalogue []metric, rep report) error {
	out := resultOut{
		Correct:   len(rep.failures) == 0,
		Attempted: rep.attempted,
		Failed:    len(rep.failures),
		Metrics:   make(map[string]valueOut, len(catalogue)),
	}
	for _, m := range catalogue {
		v, ok := rep.values[m.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", workload, m.name)
		}
		fmt.Fprintf(w, "%s %s %s %s\n", workload, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
		out.Metrics[m.name] = valueOut{Value: v, Unit: m.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// runAll runs every workload in a fresh process of this program with the
// same flags, forwarding its output, JSON result line included. A Chrome
// trace file gets the workload's name before its extension.
func runAll(ws []workload, args []string, chrome string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, w := range ws {
		childArgs := append([]string{"-workload", w.name}, args...)
		if chrome != "" {
			ext := filepath.Ext(chrome)
			childArgs = append(childArgs, "-chrome", strings.TrimSuffix(chrome, ext)+"-"+w.name+ext)
		}
		cmd := exec.Command(exe, childArgs...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// Command experiments regenerates the paper's tables and figures (Section
// 5) over the synthetic dataset replicas at laptop scale. Absolute times
// differ from the paper's 12-core Xeon / JVM setup; the comparative shapes
// (who wins, where the cliffs are) are the reproduction targets recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments -exp table6|numbers|fig2|fig3|fig4|fig5|fig6|fig7|all
//	            [-timeout 20s] [-lineitem-rows 100000] [-reps 1]
//
// Ctrl-C stops the suite between samples (in-flight discovery runs cancel
// within milliseconds); the measurements collected so far are still printed
// and the process exits with status 3.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ocd/internal/experiments"
	"ocd/internal/faultinject"
	"ocd/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run")
		timeout = flag.Duration("timeout", 20*time.Second, "per-algorithm time budget")
		liRows  = flag.Int("lineitem-rows", 100_000, "LINEITEM rows (paper: 6,001,215)")
		dbRows  = flag.Int("dbtesma-rows", 20_000, "DBTESMA rows (paper: 250,000)")
		nvRows  = flag.Int("ncvoter-rows", 50_000, "NCVOTER rows (paper: 938,084)")
		reps    = flag.Int("reps", 1, "repetitions per measurement (paper: 5)")
		samples = flag.Int("col-samples", 3, "column samples per size (paper: 50)")
		threads = flag.Int("max-threads", 8, "maximum worker count for fig6")
		plot    = flag.Bool("plot", false, "render figure series as ASCII log-scale charts")
		csvDir  = flag.String("csv-dir", "", "also write each figure's series as CSV into this directory")
		ckptDir = flag.String("checkpoint-dir", "", "write per-run resumable snapshots into this directory")
		dbgAddr = flag.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address for the suite's duration")
	)
	flag.Parse()
	if err := faultinject.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *dbgAddr != "" {
		bound, stop, err := obs.ServeDebug(*dbgAddr, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "experiments: debug server on http://%s/debug/pprof/\n", bound)
	}

	s := experiments.DefaultScale()
	s.Timeout = *timeout
	s.LineItemRows = *liRows
	s.DBTesmaRows = *dbRows
	s.NCVoterRows = *nvRows
	s.Reps = *reps
	s.ColSamples = *samples
	s.MaxThreads = *threads
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		s.CheckpointDir = *ckptDir
	}

	writeCSV := func(file, content string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return
		}
		path := filepath.Join(*csvDir, file)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}

	run := func(name string) {
		switch name {
		case "table6":
			fmt.Println("== Table 6: datasets and execution statistics ==")
			fmt.Print(experiments.FormatTable6(experiments.Table6(ctx, s, nil)))
		case "numbers":
			fmt.Println("== Table 7 / §5.2: YES, NO and NUMBERS comparison ==")
			fmt.Print(experiments.NumbersReport())
		case "fig2":
			fmt.Println("== Figure 2: row scalability ==")
			for name, series := range experiments.Fig2RowScalability(ctx, s) {
				fmt.Print(experiments.FormatSeries(name, "rows", series))
				writeCSV("fig2_"+name+".csv", experiments.SeriesCSV("rows", series))
			}
		case "fig3":
			fmt.Println("== Figure 3: column scalability, HEPATITIS ==")
			series := experiments.ColScalability(ctx, "HEPATITIS", s)
			fmt.Print(experiments.FormatSeries("HEPATITIS", "cols", series))
			writeCSV("fig3_hepatitis.csv", experiments.SeriesCSV("cols", series))
		case "fig4":
			fmt.Println("== Figure 4: column scalability, HORSE ==")
			series := experiments.ColScalability(ctx, "HORSE", s)
			fmt.Print(experiments.FormatSeries("HORSE", "cols", series))
			writeCSV("fig4_horse.csv", experiments.SeriesCSV("cols", series))
		case "fig5":
			fmt.Println("== Figure 5: single-run column growth (quasi-constant jump) ==")
			series := experiments.Fig5SingleRun(ctx, s)
			fmt.Print(experiments.FormatSeries("HORSE single run", "cols", series))
			writeCSV("fig5_horse.csv", experiments.SeriesCSV("cols", series))
			if *plot {
				fmt.Print(experiments.AsciiPlot("HORSE single run", "columns", series, 50))
			}
		case "fig6":
			fmt.Println("== Figure 6 / Table 8: multithread scalability ==")
			data := experiments.Fig6Threads(ctx, s)
			fmt.Print(experiments.FormatThreads(data))
			writeCSV("fig6_threads.csv", experiments.ThreadsCSV(data))
		case "ablation":
			fmt.Println("== Ablations: design choices of DESIGN.md ==")
			fmt.Print(experiments.FormatAblations(experiments.Ablations(ctx, s)))
		case "fig7":
			fmt.Println("== Figure 7: entropy-ordered column addition, FLIGHT ==")
			fmt.Println("   (the sweep stops at the first truncated prefix; its stop column names why: timeout, candidate-cap or memory-budget)")
			series := experiments.Fig7EntropyOrdered(ctx, s, 0)
			fmt.Print(experiments.FormatSeries("FLIGHT_1K by entropy", "cols", series))
			writeCSV("fig7_flight.csv", experiments.SeriesCSV("cols", series))
			if *plot {
				fmt.Print(experiments.AsciiPlot("FLIGHT_1K by entropy", "columns", series, 50))
			}
		default:
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, name := range []string{"table6", "numbers", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "ablation"} {
			if ctx.Err() != nil {
				break
			}
			run(name)
		}
	} else {
		run(*exp)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; partial measurements printed above")
		os.Exit(3)
	}
}

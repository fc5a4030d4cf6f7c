// Benchmarks for the observability layer's overhead and the pipeline's
// per-phase costs; scripts/check.sh runs each once as a smoke, and
// bench/run.sh measures end to end. BenchmarkObsOverhead is the
// acceptance evidence that enabling metrics + reporting costs no more
// than a few percent per check.
package ocd

import (
	"strings"
	"testing"

	"ocd/internal/core"
	"ocd/internal/datagen"
	"ocd/internal/obs"
	"ocd/internal/relation"
)

// BenchmarkObsOverhead runs the same discovery workload with observability
// fully disabled, with metrics only, and with metrics + tracing + reporting,
// so before/after comparisons can see the instrumentation cost directly.
func BenchmarkObsOverhead(b *testing.B) {
	load()
	r := benchData.letter
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Discover(r, guard())
		}
	})
	b.Run("metrics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := guard()
			opts.Metrics = obs.NewRegistry()
			core.Discover(r, opts)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := guard()
			opts.Metrics = obs.NewRegistry()
			tr := obs.NewTracer("bench")
			opts.Trace = tr.Root()
			opts.Reporter = obs.ReporterFunc(func(obs.Progress) {})
			core.Discover(r, opts)
			tr.Finish()
		}
	})
}

// BenchmarkPhase_Parse measures CSV ingestion alone (the "parse" span).
func BenchmarkPhase_Parse(b *testing.B) {
	load()
	var sb strings.Builder
	if err := benchData.letter.WriteCSV(&sb); err != nil {
		b.Fatal(err)
	}
	csvData := sb.String()
	b.SetBytes(int64(len(csvData)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relation.ReadCSV(strings.NewReader(csvData), "letter", relation.CSVOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhase_RankEncode measures typed rank encoding alone (the
// "rank-encode" span): string rows already in memory, relation out.
func BenchmarkPhase_RankEncode(b *testing.B) {
	load()
	r := benchData.letter
	rows := make([][]string, r.NumRows())
	for i := range rows {
		rows[i] = r.Row(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relation.FromStrings("letter", r.ColNames, rows, relation.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhase_Reduction measures the constant/equivalent column
// reduction phase alone via a reduction-only discovery (MaxLevel 2 keeps
// the traversal to its first level).
func BenchmarkPhase_Reduction(b *testing.B) {
	load()
	r := benchData.dbtesma
	opts := guard()
	opts.MaxLevel = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Discover(r, opts)
	}
}

// BenchmarkProgressFormat measures rendering one status line — the
// -progress ticker's per-sample cost.
func BenchmarkProgressFormat(b *testing.B) {
	w := obs.NewProgressWriter(discard{}, 0)
	p := obs.Progress{Level: 4, FrontierSize: 1284, Done: 475, Checks: 52100,
		Candidates: 81000, ChecksPerSec: 18300, CacheHitRate: 0.91, ETA: 3e9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Report(p)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkDatasetTaxinfo tracks the committed examples dataset end to end
// (load + discover), part of the set scripts/check.sh smoke-runs.
func BenchmarkDatasetTaxinfo(b *testing.B) {
	r := datagen.TaxTable()
	for i := 0; i < b.N; i++ {
		core.Discover(r, core.Options{})
	}
}

package experiments

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestDatasetRegistry(t *testing.T) {
	s := TestScale()
	for _, name := range Table6Datasets() {
		r := Dataset(name, s)
		if r.NumRows() == 0 && name != "EMPTY" {
			t.Errorf("%s: empty dataset", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown dataset should panic")
		}
	}()
	Dataset("BOGUS", s)
}

func TestTable6SmallDatasets(t *testing.T) {
	s := TestScale()
	rows := Table6(context.Background(), s, []string{"YES", "NO", "NUMBERS"})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table6Row{}
	for _, r := range rows {
		byName[r.Dataset] = r
	}
	// §5.2.1: ORDER finds nothing on YES/NO; OCDDISCOVER finds the single
	// OCD on YES and nothing on NO.
	if byName["YES"].OrderODs != 0 || byName["NO"].OrderODs != 0 {
		t.Error("ORDER must find nothing on YES and NO")
	}
	if byName["YES"].OcdOCDs != 1 {
		t.Errorf("OCDDISCOVER on YES: OCDs = %d, want 1", byName["YES"].OcdOCDs)
	}
	if byName["NO"].OcdOCDs != 0 {
		t.Errorf("OCDDISCOVER on NO: OCDs = %d, want 0", byName["NO"].OcdOCDs)
	}
	out := FormatTable6(rows)
	if !strings.Contains(out, "YES") || !strings.Contains(out, "#checks") {
		t.Error("FormatTable6 output incomplete")
	}
}

func TestTable6HorseShape(t *testing.T) {
	s := TestScale()
	rows := Table6(context.Background(), s, []string{"HORSE"})
	r := rows[0]
	// The paper's headline comparison: OCDDISCOVER finds strictly more
	// dependencies than ORDER on HORSE (repeated-attribute ODs).
	if r.OcdODs <= int64(r.OrderODs) {
		t.Errorf("OCDDISCOVER expanded ODs (%d) should exceed ORDER's (%d)", r.OcdODs, r.OrderODs)
	}
	if r.NumFDs <= 0 {
		t.Errorf("TANE found no FDs on HORSE: %d", r.NumFDs)
	}
}

func TestFig2Shape(t *testing.T) {
	s := TestScale()
	series := Fig2RowScalability(context.Background(), s)
	if len(series) != 2 {
		t.Fatalf("Fig2 series = %d", len(series))
	}
	for name, pts := range series {
		if len(pts) != 10 {
			t.Errorf("%s: %d points, want 10", name, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X {
				t.Errorf("%s: x not increasing", name)
			}
		}
	}
}

func TestColScalabilityShape(t *testing.T) {
	s := TestScale()
	pts := ColScalability(context.Background(), "HEPATITIS", s)
	base := Dataset("HEPATITIS", s)
	if len(pts) != base.NumCols()-1 {
		t.Errorf("points = %d, want %d", len(pts), base.NumCols()-1)
	}
	if pts[0].X != 2 || int(pts[len(pts)-1].X) != base.NumCols() {
		t.Error("column range wrong")
	}
}

func TestFig5ContainsQuasiConstantColumn(t *testing.T) {
	s := TestScale()
	pts := Fig5SingleRun(context.Background(), s)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	// dependency counts must be non-decreasing overall trend: at least
	// the last point has ≥ deps of the first
	if pts[len(pts)-1].Extra < pts[0].Extra {
		t.Error("dependency count should grow with columns")
	}
}

func TestFig6ThreadsShape(t *testing.T) {
	s := TestScale()
	s.MaxThreads = 2
	data := Fig6Threads(context.Background(), s)
	for name, pts := range data {
		if len(pts) < 2 {
			t.Errorf("%s: %d thread points", name, len(pts))
		}
		if pts[0].Threads != 1 || pts[0].Normalized != 1.0 {
			t.Errorf("%s: first point must be the single-thread baseline", name)
		}
	}
	if out := FormatThreads(data); !strings.Contains(out, "normalized") {
		t.Error("FormatThreads output incomplete")
	}
}

func TestFig7StopsAtCliff(t *testing.T) {
	s := TestScale()
	s.Timeout = 1_500_000_000 // 1.5s — force an early cliff
	s.MaxCand = 30_000
	pts := Fig7EntropyOrdered(context.Background(), s, 60)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	// Truncation, if it occurs, must only mark the final point: the sweep
	// stops at the first timed-out sample like the paper's Figure 7.
	for i, p := range pts[:len(pts)-1] {
		if p.Reason != "" {
			t.Errorf("point %d truncated (%s) but sweep continued", i, p.Reason)
		}
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X <= pts[i-1].X {
			t.Error("column counts not increasing")
		}
	}
	out := FormatSeries("t", "cols", pts)
	if !strings.Contains(out, "cols") {
		t.Error("FormatSeries output incomplete")
	}
}

// TestFig7PrintsStopReason: a FLIGHT prefix run that hits a tiny
// candidate cap ends the sweep, and the printed series names the cap, not
// a timeout; the Table 6 legend names the reason the same way.
func TestFig7PrintsStopReason(t *testing.T) {
	s := TestScale()
	s.Timeout = time.Minute
	s.MaxCand = 20
	pts := Fig7EntropyOrdered(context.Background(), s, 0)
	if len(pts) == 0 || pts[len(pts)-1].Reason != "candidate-cap" {
		t.Fatalf("final point %+v, want a candidate-cap stop", pts)
	}
	if out := FormatSeries("t", "cols", pts); !strings.Contains(out, "candidate-cap") || strings.Contains(out, "timeout") {
		t.Errorf("FormatSeries does not name the candidate cap:\n%s", out)
	}
	rows := []Table6Row{{Dataset: "FLIGHT_1K", OcdTrunc: true, OcdReason: "candidate-cap"}, {Dataset: "HORSE"}}
	if out := FormatTable6(rows); !strings.Contains(out, "OCDDISCOVER stopped on FLIGHT_1K candidate-cap") {
		t.Errorf("Table 6 legend does not name the stop:\n%s", out)
	}
}

func TestNumbersReport(t *testing.T) {
	out := NumbersReport()
	for _, want := range []string{"YES", "NO", "NUMBERS", "ocddiscover", "ORDER", "FASTOD"} {
		if !strings.Contains(out, want) {
			t.Errorf("NumbersReport lacks %q", want)
		}
	}
}

func TestAsciiPlot(t *testing.T) {
	series := []SeriesPoint{
		{X: 10, Elapsed: 1e6},  // 1ms
		{X: 20, Elapsed: 1e8},  // 100ms
		{X: 30, Elapsed: 1e10}, // 10s
	}
	out := AsciiPlot("t", "cols", series, 40)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + 3 bars + legend
		t.Fatalf("plot lines = %d:\n%s", len(lines), out)
	}
	// bars grow with time on the log scale
	bar := func(l string) int { return strings.Count(l, "█") }
	if !(bar(lines[1]) < bar(lines[2]) && bar(lines[2]) < bar(lines[3])) {
		t.Errorf("bars not monotone:\n%s", out)
	}
	if !strings.Contains(AsciiPlot("e", "x", nil, 10), "no data") {
		t.Error("empty series should render a placeholder")
	}
	// zero-duration points must not panic and get a minimal bar
	z := AsciiPlot("z", "x", []SeriesPoint{{X: 1, Elapsed: 0}}, 10)
	if !strings.Contains(z, "█") {
		t.Errorf("zero-duration bar missing:\n%s", z)
	}
}

func TestCSVRenderers(t *testing.T) {
	series := []SeriesPoint{{X: 10, Elapsed: 2e6, Extra: 5}}
	csv := SeriesCSV("rows", series)
	if !strings.Contains(csv, "rows,elapsed_ms,extra") || !strings.Contains(csv, "10,2,5") {
		t.Errorf("SeriesCSV = %q", csv)
	}
	th := map[string][]ThreadPoint{"L": {{Threads: 2, Elapsed: 3e6, Normalized: 0.5}}}
	csv = ThreadsCSV(th)
	if !strings.Contains(csv, "L,2,3,0.5000") {
		t.Errorf("ThreadsCSV = %q", csv)
	}
}

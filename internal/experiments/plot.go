package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// AsciiPlot renders a series as a log-scale ASCII bar chart, the closest a
// terminal gets to the paper's figures. Each row is one measurement; bar
// length is proportional to log10 of the time (the paper's Figures 5 and 7
// use a logarithmic y-axis for exactly this reason).
func AsciiPlot(title, xlabel string, series []SeriesPoint, width int) string {
	if width <= 0 {
		width = 50
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (log time scale)\n", title)
	if len(series) == 0 {
		b.WriteString("  (no data)\n")
		return b.String()
	}
	minV, maxV := series[0].Elapsed, series[0].Elapsed
	for _, p := range series {
		if p.Elapsed < minV {
			minV = p.Elapsed
		}
		if p.Elapsed > maxV {
			maxV = p.Elapsed
		}
	}
	if minV <= 0 {
		minV = time.Microsecond
	}
	logMin, logMax := logf(minV), logf(maxV)
	span := logMax - logMin
	if span <= 0 {
		span = 1
	}
	for _, p := range series {
		v := p.Elapsed
		if v <= 0 {
			v = time.Microsecond
		}
		n := int(float64(width) * (logf(v) - logMin) / span)
		if n < 1 {
			n = 1
		}
		fmt.Fprintf(&b, "%6.0f %-10s |%s\n", p.X,
			p.Elapsed.Round(time.Millisecond), strings.Repeat("█", n))
	}
	fmt.Fprintf(&b, "%6s = %s\n", "x", xlabel)
	return b.String()
}

// logf returns log10 of the duration in seconds.
func logf(d time.Duration) float64 {
	return math.Log10(d.Seconds())
}

// SeriesCSV renders a series in CSV for external plotting tools: the
// x value, elapsed milliseconds, the series-specific extra payload, and
// the stop reason of a truncated point.
func SeriesCSV(xlabel string, series []SeriesPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s,elapsed_ms,extra,stop\n", xlabel)
	for _, p := range series {
		fmt.Fprintf(&b, "%g,%d,%d,%s\n", p.X, p.Elapsed.Milliseconds(), p.Extra, p.Reason)
	}
	return b.String()
}

// ThreadsCSV renders Figure 6 / Table 8 data as CSV.
func ThreadsCSV(data map[string][]ThreadPoint) string {
	var b strings.Builder
	b.WriteString("dataset,threads,elapsed_ms,normalized\n")
	names := make([]string, 0, len(data))
	for n := range data {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, p := range data[n] {
			fmt.Fprintf(&b, "%s,%d,%d,%.4f\n", n, p.Threads, p.Elapsed.Milliseconds(), p.Normalized)
		}
	}
	return b.String()
}

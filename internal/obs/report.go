package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress is one live status sample of a discovery run, delivered to a
// Reporter at level barriers and every ReportEvery checks.
type Progress struct {
	// Level is the candidate-tree level currently being processed
	// (|X|+|Y|; the initial level is 2).
	Level int
	// FrontierSize is the number of candidates in the current level.
	FrontierSize int
	// Done is how many of the current level's candidates have been
	// processed so far.
	Done int64
	// Checks and Candidates are the cumulative run totals (including a
	// resumed run's prior counters).
	Checks     int64
	Candidates int64
	// ChecksPerSec is the check throughput since the last sample
	// (cumulative average on the first).
	ChecksPerSec float64
	// CacheHitRate is the cumulative rank-vector cache hit rate in
	// [0,1]; negative when no cache activity was recorded.
	CacheHitRate float64
	// Elapsed is the wall-clock time of this run so far (excluding a
	// resumed run's prior elapsed, which is in PriorElapsed).
	Elapsed time.Duration
	// PriorElapsed is the original run's elapsed time when this run was
	// resumed from a checkpoint; zero otherwise.
	PriorElapsed time.Duration
	// ETA estimates time to finish the current level plus one projected
	// next level from the frontier growth observed so far; negative when
	// there is not enough signal yet.
	ETA time.Duration
	// Final marks the last report of the run (the run summary sample).
	Final bool
}

// Reporter consumes progress samples. Implementations must be safe for
// concurrent use: the engine may report from whichever worker crosses
// the check threshold.
type Reporter interface {
	Report(Progress)
}

// ReporterFunc adapts a function to the Reporter interface.
type ReporterFunc func(Progress)

// Report calls f.
func (f ReporterFunc) Report(p Progress) { f(p) }

// ProgressWriter renders progress samples as a single self-overwriting
// status line ("\r"-terminated) — the -progress stderr ticker. Samples
// arriving faster than MinInterval are dropped (except the final one,
// which is always printed and newline-terminated). Safe for concurrent
// use.
type ProgressWriter struct {
	w           io.Writer
	minInterval time.Duration

	mu        sync.Mutex
	last      time.Time
	lastWidth int
}

// NewProgressWriter returns a ProgressWriter emitting to w at most once
// per minInterval (0 means every sample).
func NewProgressWriter(w io.Writer, minInterval time.Duration) *ProgressWriter {
	return &ProgressWriter{w: w, minInterval: minInterval}
}

// Report renders the sample.
func (p *ProgressWriter) Report(pr Progress) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if !pr.Final && p.minInterval > 0 && !p.last.IsZero() && now.Sub(p.last) < p.minInterval {
		return
	}
	p.last = now

	line := formatProgress(pr)
	// Pad with spaces so a shorter line fully overwrites a longer one.
	pad := p.lastWidth - len(line)
	p.lastWidth = len(line)
	if pad < 0 {
		pad = 0
	}
	if pr.Final {
		fmt.Fprintf(p.w, "\r%s%*s\n", line, pad, "")
		p.lastWidth = 0
		return
	}
	fmt.Fprintf(p.w, "\r%s%*s", line, pad, "")
}

// formatProgress renders one status line:
//
//	level 4  frontier 1284 (37%)  checks 52.1k (18.3k/s)  cache 91%  eta ~3s
func formatProgress(pr Progress) string {
	line := fmt.Sprintf("level %d  frontier %d", pr.Level, pr.FrontierSize)
	if pr.FrontierSize > 0 {
		line += fmt.Sprintf(" (%d%%)", pr.Done*100/int64(pr.FrontierSize))
	}
	line += fmt.Sprintf("  checks %s", humanCount(pr.Checks))
	if pr.ChecksPerSec > 0 {
		line += fmt.Sprintf(" (%s/s)", humanCount(int64(pr.ChecksPerSec)))
	}
	if pr.CacheHitRate >= 0 {
		line += fmt.Sprintf("  cache %d%%", int(pr.CacheHitRate*100))
	}
	if pr.ETA >= 0 {
		line += fmt.Sprintf("  eta ~%s", pr.ETA.Round(time.Second))
	}
	if pr.Final {
		total := pr.Elapsed + pr.PriorElapsed
		line = fmt.Sprintf("done: reached level %d in %s, %s checks",
			pr.Level, total.Round(time.Millisecond), humanCount(pr.Checks))
	}
	return line
}

// humanCount renders counts as 999, 52.1k, 3.4M.
func humanCount(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}

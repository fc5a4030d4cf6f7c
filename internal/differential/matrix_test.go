//go:build faultinject

package differential

import (
	"encoding/json"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"ocd"
	"ocd/internal/faultinject"
	"ocd/internal/jobs"
)

// via names the surface a mode runs through.
type via int

const (
	library via = iota // ocd.Table.Discover in this process
	cli                // the ocddiscover command, -json
	server             // an ocdserve job
)

// mode is one way to execute a run. The zero value is the library at one
// worker, uninterrupted.
type mode struct {
	via     via
	workers int // < 1 selects 1
	// budget and maxLevel are the library's MaxMemoryBytes and MaxLevel
	// for its first run.
	budget   int64
	maxLevel int
	// stop is the reason the library's first run must truncate with; a
	// second run, without budget or level cap, resumes its snapshot. Empty:
	// the first run must complete.
	stop ocd.TruncateReason
	// fault is OCD_FAULT for the first ocddiscover or ocdserve process,
	// which must die by it; a second process resumes the run. Empty: one
	// uninterrupted process.
	fault string
}

func (m mode) String() string {
	s := fmt.Sprintf("%s,workers=%d", [...]string{"library", "ocddiscover", "ocdserve"}[m.via], max(m.workers, 1))
	if m.budget > 0 {
		s += fmt.Sprintf(",budget=%d", m.budget)
	}
	if m.maxLevel > 0 {
		s += fmt.Sprintf(",max-level=%d", m.maxLevel)
	}
	if m.stop != "" {
		s += ",stop=" + string(m.stop)
	}
	if m.fault != "" {
		s += ",fault=" + m.fault
	}
	return s
}

// run executes in under m and returns the canon of the final result.
func run(t *testing.T, in *input, m mode) canon {
	t.Helper()
	workers := max(m.workers, 1)
	switch m.via {
	case cli:
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		args := []string{"-input", in.csv, "-json", "-workers", strconv.Itoa(workers)}
		if m.fault != "" {
			ocddiscover(t, faultinject.ExitCode, m.fault, append(args, "-checkpoint", ckpt)...)
			args = append(args, "-resume", ckpt)
		}
		return ocddiscover(t, 0, "", args...).canon(t)
	case server:
		dir, logs := t.TempDir(), artifacts(t)
		s := startServer(t, filepath.Join(logs, "first.log"), dir, m.fault)
		id := s.submit(t, in.name, in, workers)
		if m.fault != "" {
			s.waitExit(t, faultinject.ExitCode)
			s = startServer(t, filepath.Join(logs, "second.log"), dir, "")
		}
		s.waitJob(t, id, jobs.StateCompleted)
		c, _ := s.result(t, id, in.name)
		s.stop(t)
		return c
	}
	opts := ocd.Options{Workers: workers, MaxMemoryBytes: m.budget, MaxLevel: m.maxLevel}
	if m.stop != "" {
		opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
	}
	res, err := in.tbl.Discover(opts)
	must(t, err)
	if res.Stats.TruncateReason != m.stop {
		t.Fatalf("first run stopped with %q, want %q", res.Stats.TruncateReason, m.stop)
	}
	if m.stop != "" {
		res, err = in.tbl.Discover(ocd.Options{Workers: workers, ResumeFrom: opts.CheckpointPath})
		must(t, err)
		if !res.Stats.Resumed {
			t.Fatal("second run did not resume")
		}
	}
	return canonOf(t, ocd.NewResultDoc(in.tbl, res, 0))
}

// matrixCase is one row of the matrix: input in, run in mode m, must give
// want.
type matrixCase struct {
	in   *input
	m    mode
	want canon
}

func That(in *input, m mode) matrixCase { return matrixCase{in: in, m: m} }

func (c matrixCase) Puts(want canon) matrixCase { c.want = want; return c }

func testMatrix(t *testing.T, cases ...matrixCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.m.String(), func(t *testing.T) { mustAgree(t, run(t, c.in, c.m), c.want) })
	}
}

// TestModesAgree requires every execution mode to give the fresh
// one-worker library run's result on every input: the worker count, the
// memory budget, a stop at any barrier and its resume, a killed and resumed
// ocddiscover, and an ocdserve job, killed mid-job or not.
func TestModesAgree(t *testing.T) {
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			fresh := run(t, in, mode{})
			var d ocd.ResultDoc
			must(t, json.Unmarshal([]byte(fresh), &d))
			cases := []matrixCase{
				That(in, mode{workers: 2}).Puts(fresh),
				That(in, mode{workers: 4}).Puts(fresh),
				That(in, mode{workers: 2, budget: 1 << 40}).Puts(fresh),
				That(in, mode{workers: 2, budget: 1, stop: ocd.TruncateMemoryBudget}).Puts(fresh),
				That(in, mode{via: server, workers: 2}).Puts(fresh),
			}
			// A process killed as level k starts has written the snapshot
			// of level k-1; the first level has none to resume from.
			if d.Levels >= 2 {
				kill := fmt.Sprintf("core.level.start:exit:%d", d.Levels/2+1)
				cases = append(cases,
					That(in, mode{via: cli, workers: 2, fault: kill}).Puts(fresh),
					That(in, mode{via: server, workers: 2, fault: kill}).Puts(fresh))
			}
			// MaxLevel b stops at the barrier after level b-1, b = 1 being
			// the one before the first level: every barrier of the run.
			for b := 1; b <= d.Levels; b++ {
				cases = append(cases, That(in, mode{workers: 2, maxLevel: b, stop: ocd.TruncateLevelCap}).Puts(fresh))
			}
			testMatrix(t, cases...)
		})
	}
}

// TestDocumentKeys requires ocddiscover -json and a job's result.json for
// the same input and options to carry the same keys, apart from the
// command's resume hints and the job's id and attempt count. A level cap
// truncates both runs, so the resume hints and the truncation fields show.
func TestDocumentKeys(t *testing.T) {
	t.Parallel()
	// keys returns the document's keys less only, each of which it must have.
	keys := func(doc []byte, only ...string) []string {
		var m map[string]json.RawMessage
		must(t, json.Unmarshal(doc, &m))
		for _, k := range only {
			if _, ok := m[k]; !ok {
				t.Errorf("document lacks %q: %s", k, doc)
			}
			delete(m, k)
		}
		return slices.Sorted(maps.Keys(m))
	}
	p := ocddiscover(t, 0, "", "-input", taxinfo.csv, "-json", "-partial-ok", "-max-level", "3", "-expand", "5",
		"-checkpoint", filepath.Join(t.TempDir(), "run.ckpt"))
	cli := keys(p.stdout, "checkpoint_path", "resume_command")

	s := startServer(t, filepath.Join(artifacts(t), "server.log"), t.TempDir(), "")
	id := s.submit(t, "tax", taxinfo, 1, "max-level=3", "expand=5")
	s.waitJob(t, id, jobs.StateCompleted)
	job := keys(s.getJSON(t, "/jobs/"+id+"/result", new(jobs.ResultDoc)), "id", "attempts")
	s.stop(t)

	if !slices.Equal(cli, job) {
		t.Errorf("ocddiscover -json keys %v, result.json keys %v", cli, job)
	}
	for _, k := range []string{"truncated", "truncate_reason", "expanded_ods", "levels", "prunes"} {
		if !slices.Contains(cli, k) {
			t.Errorf("documents lack %q: %v", k, cli)
		}
	}
}

//go:build faultinject

package differential

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"ocd/internal/faultinject"
	"ocd/internal/jobs"
)

// manifest reads a job's write-ahead manifest from the data directory.
func manifest(t *testing.T, dir, id string) jobs.Manifest {
	t.Helper()
	var m jobs.Manifest
	readJSON(t, filepath.Join(dir, id, "manifest.json"), &m)
	return m
}

// TestServerCrashRestart kills ocdserve mid-job with work queued, restarts
// it on the same data directory, and requires the interrupted job to
// resume to the uninterrupted server's result, a job that panics on every
// attempt to fail after -max-attempts with its stack, its neighbours to
// complete, and the server to stay healthy.
func TestServerCrashRestart(t *testing.T) {
	t.Parallel()
	logs, dir := artifacts(t), t.TempDir()
	var baseFlight, baseTax canon
	var flightID, taxID, poisonID string

	step(t, "baseline: uninterrupted server", func(t *testing.T) {
		s := startServer(t, filepath.Join(logs, "baseline.log"), t.TempDir(), "")
		fid, tid := s.submit(t, "flight50", flight50, 1), s.submit(t, "tax", taxinfo, 1)
		s.waitJob(t, fid, jobs.StateCompleted)
		s.waitJob(t, tid, jobs.StateCompleted)
		var doc jobs.ResultDoc
		baseFlight, doc = s.result(t, fid, "flight50")
		baseTax, _ = s.result(t, tid, "tax")
		if doc.Levels < 3 {
			t.Fatalf("flight50 traversal has only %d levels; the level-3 kill cannot fire", doc.Levels)
		}
		s.stop(t)
	})
	step(t, "kill mid-job at level 3 with work queued", func(t *testing.T) {
		// The first reduction row sleeps for a second, so all three
		// submissions are queued before the kill.
		s := startServer(t, filepath.Join(logs, "crash.log"), dir, "core.reduction.row:delay:1;core.level.start:exit:3")
		flightID, taxID, poisonID = s.submit(t, "flight50", flight50, 1), s.submit(t, "tax", taxinfo, 1), s.submit(t, "poison", taxinfo, 1)
		s.waitExit(t, faultinject.ExitCode)
		if fi, err := os.Stat(filepath.Join(dir, flightID, "job.ckpt")); err != nil || fi.Size() == 0 {
			t.Fatalf("the crashed job left no snapshot (%v)", err)
		}
		if m := manifest(t, dir, flightID); m.State != jobs.StateRunning {
			t.Fatalf("crashed manifest says %s, want running", m.State)
		}
	})
	step(t, "restart", func(t *testing.T) {
		s := startServer(t, filepath.Join(logs, "restart.log"), dir, "jobs.run.poison:panic:*")
		s.waitJob(t, flightID, jobs.StateCompleted)
		s.waitJob(t, taxID, jobs.StateCompleted)
		t.Run("poison job fails after max attempts with its stack", func(t *testing.T) {
			p := s.waitJob(t, poisonID, jobs.StateFailed)
			if p.ErrorKind != jobs.KindRunnerPanic || p.Attempts != 2 || p.Stack == "" {
				t.Errorf("poison job: kind %q, %d attempts, %d-byte stack; want %q, 2, a stack",
					p.ErrorKind, p.Attempts, len(p.Stack), jobs.KindRunnerPanic)
			}
		})
		t.Run("results equal the uninterrupted server's", func(t *testing.T) {
			got, doc := s.result(t, flightID, "flight50")
			if !doc.Resumed || doc.Attempts != 2 {
				t.Errorf("interrupted job: resumed %v after %d attempts, want true after 2", doc.Resumed, doc.Attempts)
			}
			mustAgree(t, got, baseFlight)
			got, _ = s.result(t, taxID, "tax")
			mustAgree(t, got, baseTax)
		})
		t.Run("healthy after the storm", func(t *testing.T) {
			var h jobs.HealthDoc
			if s.getJSON(t, "/healthz", &h); h.Status != "ok" || h.Jobs != 3 {
				t.Errorf("health: %+v, want ok with 3 jobs", h)
			}
			var m struct{ Counters map[string]int64 }
			if s.getJSON(t, "/metrics", &m); m.Counters["jobs.resumed"] < 1 || m.Counters["jobs.failed"] != 1 {
				t.Errorf("jobs.resumed %d (want ≥ 1), jobs.failed %d (want 1)", m.Counters["jobs.resumed"], m.Counters["jobs.failed"])
			}
		})
		s.stop(t)
	})
}

// TestServerDrain requires SIGTERM mid-job to checkpoint the job, persist
// it as interrupted and exit 0, and the next start to finish it with the
// uninterrupted result.
func TestServerDrain(t *testing.T) {
	t.Parallel()
	logs, dir := artifacts(t), t.TempDir()
	var id string
	step(t, "SIGTERM mid-job checkpoints and exits 0", func(t *testing.T) {
		// The whole job takes about 0.1 s, so the traversal is held for a
		// second before its second level: a SIGTERM sent once the first
		// level reports progress lands mid-job.
		s := startServer(t, filepath.Join(logs, "drain.log"), dir, "core.level.start:delay:2")
		id = s.submit(t, "flight50", flight50, 1)
		for end := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			if p := s.waitJob(t, id, jobs.StateRunning).Progress; p != nil && p.Level >= 1 {
				break
			} else if time.Now().After(end) {
				t.Fatal("the job never reported progress")
			}
		}
		s.stop(t)
		if m := manifest(t, dir, id); m.State != jobs.StateQueued || !m.Interrupted {
			t.Fatalf("drained manifest: state %s, interrupted %v; want queued, true", m.State, m.Interrupted)
		}
	})
	t.Run("restart finishes the interrupted job identically", func(t *testing.T) {
		s := startServer(t, filepath.Join(logs, "postdrain.log"), dir, "")
		s.waitJob(t, id, jobs.StateCompleted)
		got, _ := s.result(t, id, "flight50")
		mustAgree(t, got, run(t, flight50, mode{}))
		s.stop(t)
	})
}

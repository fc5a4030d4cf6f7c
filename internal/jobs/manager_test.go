package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	ocd "ocd"
)

// testLogWriter routes the manager's structured log output through t.Logf.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// testCSV builds a deterministic dataset with enough structure that
// discovery crosses several levels yet finishes in milliseconds: b and c
// are monotone coarsenings of a (so [a]~[b], [a]~[c], [b]~[c] and longer
// lists survive into deeper levels), d is scrambled, e is order-equivalent
// to a, and f is constant.
func testCSV(rows int) string {
	var b strings.Builder
	b.WriteString("a,b,c,d,e,f\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,k\n", i, i/5, i/25, (i*7)%13, i*3)
	}
	return b.String()
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last in, first out, so this one runs before t.TempDir's
	// removal: an attempt still finishing after the test body returned must
	// persist its manifest into a directory that still exists, and log while
	// the test is still running.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			t.Error(err)
		}
		m.Wait()
	})
	return m
}

func submit(t *testing.T, m *Manager, name, csv string, opts JobOptions) *Job {
	t.Helper()
	j, err := m.Submit(context.Background(), name, strings.NewReader(csv), opts)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// waitState polls until the job reaches the wanted state (10s cap).
func waitState(t *testing.T, m *Manager, id string, want State) StatusDoc {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		doc, err := m.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if doc.State == want {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (want %q): %+v", id, doc.State, want, doc)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func resultDoc(t *testing.T, m *Manager, id string) ResultDoc {
	t.Helper()
	data, err := m.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	var doc ResultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func setHook(t *testing.T, hook func(ctx context.Context, name string)) {
	t.Helper()
	testHookBeforeRun = hook
	t.Cleanup(func() { testHookBeforeRun = nil })
}

// TestSubmitRunsToCompletion: the happy path — submit, run, durable result.
func TestSubmitRunsToCompletion(t *testing.T) {
	m := newTestManager(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	j := submit(t, m, "happy", testCSV(100), JobOptions{ExpandLimit: 10})
	doc := waitState(t, m, j.ID(), StateCompleted)
	if !doc.ResultReady || doc.Attempts != 1 || doc.Error != "" {
		t.Fatalf("unexpected status: %+v", doc)
	}

	res := resultDoc(t, m, j.ID())
	if res.Name != "happy" || res.Rows != 100 || res.Cols != 6 {
		t.Fatalf("result header wrong: %+v", res)
	}
	if len(res.OCDs) == 0 || res.Checks == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	// e=3a is order-equivalent to a; f is constant — reduction must see both.
	if len(res.EquivalentGroups) == 0 || len(res.ConstantColumns) == 0 {
		t.Fatalf("reduction missing: %+v", res)
	}

	// The manifest on disk is terminal too (restart would serve it as-is).
	man, err := readManifest(manifestPath(filepath.Join(m.cfg.Dir, j.ID())))
	if err != nil {
		t.Fatal(err)
	}
	if man.State != StateCompleted {
		t.Fatalf("persisted state = %q, want completed", man.State)
	}
}

// TestAdmissionControl: typed rejections — queue-full, draining, too-large,
// bad name — without ever starting the scheduler (deterministic queue).
func TestAdmissionControl(t *testing.T) {
	m := newTestManager(t, Config{QueueDepth: 1, MaxUploadBytes: 1 << 20})
	bg := context.Background()

	if _, err := m.Submit(bg, "first", strings.NewReader(testCSV(5)), JobOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(bg, "second", strings.NewReader(testCSV(5)), JobOptions{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if _, err := m.Submit(bg, "../evil", strings.NewReader("a\n1\n"), JobOptions{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}

	small := newTestManager(t, Config{MaxUploadBytes: 16})
	if _, err := small.Submit(bg, "big", strings.NewReader(testCSV(100)), JobOptions{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}

	drainCtx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	if err := m.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(bg, "late", strings.NewReader(testCSV(5)), JobOptions{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
}

// TestCancelQueuedJob: cancelling before any attempt runs is immediate and
// durable.
func TestCancelQueuedJob(t *testing.T) {
	m := newTestManager(t, Config{}) // scheduler never started
	j := submit(t, m, "parked", testCSV(10), JobOptions{})
	if err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	doc := waitState(t, m, j.ID(), StateCancelled)
	if doc.Attempts != 0 {
		t.Fatalf("attempts = %d, want 0", doc.Attempts)
	}
	man, err := readManifest(manifestPath(filepath.Join(m.cfg.Dir, j.ID())))
	if err != nil {
		t.Fatal(err)
	}
	if man.State != StateCancelled {
		t.Fatalf("persisted state = %q, want cancelled", man.State)
	}
	// Cancelling again is a no-op, not an error.
	if err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
}

// TestCancelRunningJob: a running attempt is stopped cooperatively and the
// job lands in cancelled instead of wedging.
func TestCancelRunningJob(t *testing.T) {
	setHook(t, func(ctx context.Context, name string) {
		if name == "stuck" {
			<-ctx.Done() // hold the attempt until cancel lands
		}
	})
	m := newTestManager(t, Config{MaxActive: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	j := submit(t, m, "stuck", testCSV(50), JobOptions{})
	waitState(t, m, j.ID(), StateRunning)
	if err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	doc := waitState(t, m, j.ID(), StateCancelled)
	if doc.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", doc.Attempts)
	}
}

// TestDeleteRunningJob: deletion of a running job cancels it and removes
// its directory once the attempt observes the stop.
func TestDeleteRunningJob(t *testing.T) {
	setHook(t, func(ctx context.Context, name string) {
		if name == "doomed" {
			<-ctx.Done()
		}
	})
	m := newTestManager(t, Config{MaxActive: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	j := submit(t, m, "doomed", testCSV(50), JobOptions{})
	waitState(t, m, j.ID(), StateRunning)
	done, err := m.Delete(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("running job reported as deleted synchronously")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := m.Status(j.ID()); errors.Is(err, ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deleted job still present")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(m.cfg.Dir, j.ID())); !os.IsNotExist(err) {
		t.Fatalf("job dir still on disk: %v", err)
	}
}

// TestPanicRetryThenPoison: a job that panics on every attempt retries with
// backoff, is declared failed at the poison cap with the stack preserved,
// and never harms its neighbours.
func TestPanicRetryThenPoison(t *testing.T) {
	setHook(t, func(ctx context.Context, name string) {
		if name == "poison" {
			panic("injected poison " + name) // deliberate fault
		}
	})
	m := newTestManager(t, Config{MaxActive: 1, MaxAttempts: 2, BackoffBase: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	bad := submit(t, m, "poison", testCSV(20), JobOptions{})
	good := submit(t, m, "healthy", testCSV(20), JobOptions{})

	doc := waitState(t, m, bad.ID(), StateFailed)
	if doc.ErrorKind != KindRunnerPanic {
		t.Fatalf("error kind = %q, want %q", doc.ErrorKind, KindRunnerPanic)
	}
	if doc.Attempts != 2 {
		t.Fatalf("attempts = %d, want the poison cap 2", doc.Attempts)
	}
	if !strings.Contains(doc.Error, "injected poison") || doc.Stack == "" {
		t.Fatalf("panic evidence missing: error=%q stack=%dB", doc.Error, len(doc.Stack))
	}
	// The neighbour completes: one poisoned job never takes the server down.
	waitState(t, m, good.ID(), StateCompleted)
}

// TestDrainInterruptsAndResumes: a drain stops a running attempt without
// charging its attempt budget, persists it as interrupted, and a fresh
// manager over the same directory finishes the job.
func TestDrainInterruptsAndResumes(t *testing.T) {
	setHook(t, func(ctx context.Context, name string) {
		if name == "slow" {
			<-ctx.Done()
		}
	})
	dir := t.TempDir()
	m := newTestManager(t, Config{Dir: dir, MaxActive: 1})
	ctx, cancel := context.WithCancel(context.Background())
	m.Start(ctx)

	j := submit(t, m, "slow", testCSV(80), JobOptions{})
	waitState(t, m, j.ID(), StateRunning)

	drainCtx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := m.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	cancel()
	m.Wait()

	man, err := readManifest(manifestPath(filepath.Join(dir, j.ID())))
	if err != nil {
		t.Fatal(err)
	}
	if man.State != StateQueued || !man.Interrupted || man.Attempts != 0 {
		t.Fatalf("post-drain manifest: %+v", man)
	}

	// Restart: the hook no longer blocks, the job completes.
	testHookBeforeRun = nil
	m2 := newTestManager(t, Config{Dir: dir, MaxActive: 1})
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	m2.Start(ctx2)
	doc := waitState(t, m2, j.ID(), StateCompleted)
	if !doc.ResultReady {
		t.Fatalf("no result after restart: %+v", doc)
	}
}

// crashedJobDir fabricates the on-disk remains of a process that died
// mid-attempt: input.csv, a snapshot from a level-capped run, and a
// manifest persisted as "running".
func crashedJobDir(t *testing.T, root, id, name, csv string, attempts int, withSnapshot bool) string {
	t.Helper()
	dir := filepath.Join(root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(inputPath(dir), []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	if withSnapshot {
		tbl, err := ocd.LoadCSV(strings.NewReader(csv), name)
		if err != nil {
			t.Fatal(err)
		}
		part, err := tbl.Discover(ocd.Options{MaxLevel: 2, CheckpointPath: snapshotPath(dir)})
		if err != nil {
			t.Fatal(err)
		}
		if !part.Stats.Truncated || part.Stats.Checkpoints == 0 {
			t.Fatalf("seed run did not checkpoint: %+v", part.Stats)
		}
	}
	now := time.Now().UTC()
	man := &Manifest{
		ID: id, Name: name, State: StateRunning, Attempts: attempts,
		CreatedAt: now, UpdatedAt: now,
	}
	if err := writeJSONAtomic(manifestPath(dir), man); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCrashRecoveryResumesFromSnapshot: Open finds a "running" manifest,
// requeues the job, and the rerun resumes from the snapshot — final output
// and counters equal to an uninterrupted run.
func TestCrashRecoveryResumesFromSnapshot(t *testing.T) {
	csv := testCSV(120)
	root := t.TempDir()
	crashedJobDir(t, root, "jcrash0", "crashy", csv, 1, true)

	// Baseline: an uninterrupted run on the same data.
	tbl, err := ocd.LoadCSV(strings.NewReader(csv), "crashy")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := tbl.Discover(ocd.Options{})
	if err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Config{Dir: root, MaxActive: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	doc := waitState(t, m, "jcrash0", StateCompleted)
	if doc.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (crashed attempt charged)", doc.Attempts)
	}
	res := resultDoc(t, m, "jcrash0")
	if !res.Resumed {
		t.Fatal("result not marked as resumed")
	}
	if !reflect.DeepEqual(res.OCDs, fresh.OCDs) || !reflect.DeepEqual(res.ODs, fresh.ODs) {
		t.Fatalf("resumed output differs from fresh:\nfresh %v / %v\nresumed %v / %v",
			fresh.OCDs, fresh.ODs, res.OCDs, res.ODs)
	}
	if res.Checks != fresh.Stats.Checks || res.Candidates != fresh.Stats.Candidates {
		t.Fatalf("counters differ: resumed checks=%d candidates=%d, fresh %d/%d",
			res.Checks, res.Candidates, fresh.Stats.Checks, fresh.Stats.Candidates)
	}
}

// TestLegacyBackendOptionManifestResumes: a manifest written by an older
// build still carries "use_sorted_partitions", the option of the checking
// backend that was removed. Open must load it, resume the job from its
// snapshot, and produce the dependencies of a fresh submission.
func TestLegacyBackendOptionManifestResumes(t *testing.T) {
	csv := testCSV(120)
	root := t.TempDir()
	dir := crashedJobDir(t, root, "jlegacy", "legacy", csv, 1, true)
	legacy := `{
  "id": "jlegacy",
  "name": "legacy",
  "state": "running",
  "options": {
    "workers": 2,
    "use_sorted_partitions": true
  },
  "attempts": 1,
  "created_at": "2026-10-16T12:00:00Z",
  "updated_at": "2026-10-16T12:00:01Z"
}
`
	if err := os.WriteFile(manifestPath(dir), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Config{Dir: root, MaxActive: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	doc := waitState(t, m, "jlegacy", StateCompleted)
	if doc.Attempts != 2 || doc.Error != "" {
		t.Fatalf("unexpected status: %+v", doc)
	}
	got := resultDoc(t, m, "jlegacy")
	if !got.Resumed {
		t.Fatal("result not marked as resumed")
	}
	j := submit(t, m, "fresh", csv, JobOptions{Workers: 2})
	waitState(t, m, j.ID(), StateCompleted)
	want := resultDoc(t, m, j.ID())
	if len(want.OCDs) == 0 {
		t.Fatalf("fresh submission found no OCDs: %+v", want)
	}
	if !reflect.DeepEqual(got.OCDs, want.OCDs) || !reflect.DeepEqual(got.ODs, want.ODs) ||
		!reflect.DeepEqual(got.EquivalentGroups, want.EquivalentGroups) ||
		!reflect.DeepEqual(got.ConstantColumns, want.ConstantColumns) {
		t.Fatalf("legacy job differs from a fresh submission:\nlegacy %v / %v\nfresh  %v / %v",
			got.OCDs, got.ODs, want.OCDs, want.ODs)
	}
}

// TestCheckpointMismatchFailsTyped (satellite): the dataset changed under
// the snapshot — the job must fail with a typed checkpoint-mismatch error
// instead of wedging or retrying forever.
func TestCheckpointMismatchFailsTyped(t *testing.T) {
	root := t.TempDir()
	dir := crashedJobDir(t, root, "jmism00", "mismatch", testCSV(60), 1, true)
	// Rewrite the dataset after the snapshot was taken: same schema, other
	// rows — the fingerprint check must catch it.
	if err := os.WriteFile(inputPath(dir), []byte(testCSV(61)), 0o644); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Config{Dir: root, MaxActive: 1, MaxAttempts: 3})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	doc := waitState(t, m, "jmism00", StateFailed)
	if doc.ErrorKind != KindCheckpointMismatch {
		t.Fatalf("error kind = %q, want %q (error: %s)", doc.ErrorKind, KindCheckpointMismatch, doc.Error)
	}
	if doc.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 — mismatch must not be retried", doc.Attempts)
	}
	// The failure is persisted: a restart shows the same terminal state.
	man, err := readManifest(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if man.State != StateFailed || man.ErrorKind != KindCheckpointMismatch {
		t.Fatalf("persisted manifest: %+v", man)
	}
}

// TestCheckpointCorruptFailsTyped (satellite): a bit-flipped snapshot is
// refused with a typed checkpoint-corrupt failure, and the server keeps
// serving other jobs.
func TestCheckpointCorruptFailsTyped(t *testing.T) {
	root := t.TempDir()
	dir := crashedJobDir(t, root, "jcorr00", "corrupt", testCSV(60), 1, true)
	raw, err := os.ReadFile(snapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40 // flip one bit mid-file
	if err := os.WriteFile(snapshotPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Config{Dir: root, MaxActive: 1, MaxAttempts: 3})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	doc := waitState(t, m, "jcorr00", StateFailed)
	if doc.ErrorKind != KindCheckpointCorrupt {
		t.Fatalf("error kind = %q, want %q (error: %s)", doc.ErrorKind, KindCheckpointCorrupt, doc.Error)
	}
	if doc.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 — corruption must not be retried", doc.Attempts)
	}

	// Health: an unrelated job still runs to completion afterwards.
	j := submit(t, m, "bystander", testCSV(30), JobOptions{})
	waitState(t, m, j.ID(), StateCompleted)
}

// TestRecoveryPoisonsCrashLoop: a job that already burned the whole attempt
// budget when the process died is failed at Open — a crash-looping job can
// never wedge the server in a restart cycle.
func TestRecoveryPoisonsCrashLoop(t *testing.T) {
	root := t.TempDir()
	crashedJobDir(t, root, "jloop00", "looper", testCSV(20), 3, false)

	m := newTestManager(t, Config{Dir: root, MaxAttempts: 3}) // no Start needed
	doc, err := m.Status("jloop00")
	if err != nil {
		t.Fatal(err)
	}
	if doc.State != StateFailed || doc.ErrorKind != KindCrash {
		t.Fatalf("recovered status: %+v, want failed/crash", doc)
	}
}

// TestTimeoutCompletesTruncated: a per-job timeout yields a *completed* job
// with partial results and truncate_reason timeout, not a failure.
func TestTimeoutCompletesTruncated(t *testing.T) {
	m := newTestManager(t, Config{MaxActive: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	j := submit(t, m, "deadline", testCSV(100), JobOptions{Timeout: time.Nanosecond})
	doc := waitState(t, m, j.ID(), StateCompleted)
	if doc.TruncateReason != string(ocd.TruncateTimeout) {
		t.Fatalf("truncate reason = %q, want timeout", doc.TruncateReason)
	}
	res := resultDoc(t, m, j.ID())
	if !res.Truncated {
		t.Fatal("result not marked truncated")
	}
}

// TestListDeterministicOrder: the catalog is sorted by creation time then
// id regardless of map iteration order.
func TestListDeterministicOrder(t *testing.T) {
	m := newTestManager(t, Config{QueueDepth: 64})
	var ids []string
	for i := 0; i < 8; i++ {
		j := submit(t, m, fmt.Sprintf("job%d", i), testCSV(5), JobOptions{})
		ids = append(ids, j.ID())
	}
	for i := 0; i < 5; i++ {
		docs := m.List()
		if len(docs) != len(ids) {
			t.Fatalf("list has %d entries, want %d", len(docs), len(ids))
		}
		for k, doc := range docs {
			if doc.ID != ids[k] {
				t.Fatalf("list order changed: pos %d = %s, want %s", k, doc.ID, ids[k])
			}
		}
	}
}

// TestCheckpointVersionFailsTyped: a queued job whose snapshot was written
// in format version 1 fails at once with the typed checkpoint-version
// kind, not as an input error, and is not retried.
func TestCheckpointVersionFailsTyped(t *testing.T) {
	root := t.TempDir()
	dir := crashedJobDir(t, root, "jvers00", "oldformat", testCSV(60), 0, false)
	v1 := "OCDCKPT 1 2 44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a\n{}"
	if err := os.WriteFile(snapshotPath(dir), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	man.State = StateQueued
	if err := writeJSONAtomic(manifestPath(dir), man); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Config{Dir: root, MaxActive: 1, MaxAttempts: 3})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	doc := waitState(t, m, "jvers00", StateFailed)
	if doc.ErrorKind != KindCheckpointVersion {
		t.Fatalf("error kind = %q, want %q (error: %s)", doc.ErrorKind, KindCheckpointVersion, doc.Error)
	}
	if doc.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 — an unsupported version must not be retried", doc.Attempts)
	}
}

package jobs

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	mrand "math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	ocd "ocd"
	"ocd/internal/core"
	"ocd/internal/faultinject"
	"ocd/internal/obs"
)

// Config tunes a Manager. The zero value of every field selects a sane
// default; only Dir is required.
type Config struct {
	// Dir is the data directory; each job owns a subdirectory of it.
	Dir string
	// MaxActive bounds concurrently running jobs (default 2).
	MaxActive int
	// QueueDepth bounds admitted-but-not-running jobs, including those in a
	// retry-backoff window (default 16). Beyond it submissions get
	// ErrQueueFull.
	QueueDepth int
	// MaxMemoryBytes is the shared soft heap budget. The engine compares the
	// whole process's heap with it, so every running job gets the full value
	// as its Options.MaxMemoryBytes: over budget at a level barrier, a job
	// drops its caches, and it truncates with reason "memory-budget" when
	// the process heap stays over. Zero means no budget.
	MaxMemoryBytes int64
	// MaxUploadBytes caps a submitted CSV. Zero derives the cap from the
	// per-job memory share, MaxMemoryBytes/MaxActive (a rank-encoded
	// relation needs at least its CSV size in heap), or 1 GiB when there is
	// no budget.
	MaxUploadBytes int64
	// MaxAttempts is the poison cap: a job whose attempt fails (panic or
	// crash) this many times is marked failed for good (default 3).
	MaxAttempts int
	// BackoffBase/BackoffCap shape the retry delay after a failed attempt.
	// The delay is fully jittered: uniform in [0, ceiling] where ceiling is
	// base<<(attempts-1) clamped to cap (defaults 500ms / 30s). Full jitter
	// keeps a batch of jobs that crashed together (one bad deploy, one full
	// disk) from retrying in lockstep and re-overloading whatever felled them.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// RetryAfter is the Retry-After hint returned with 429/503 rejections
	// (default 2s).
	RetryAfter time.Duration
	// MinFreeBytes is the free-space floor for the data volume: while the
	// filesystem holding Dir has fewer free bytes, new submissions are
	// refused with ErrLowDisk (503) instead of being admitted into a run
	// that would fail mid-checkpoint. Zero disables the gate.
	MinFreeBytes int64
	// Metrics receives the manager's counters and gauges (nil = private
	// registry).
	Metrics *obs.Registry
	// Logger receives the manager's operational log records, each
	// correlated with job_id/attempt attrs (nil = silent).
	Logger *slog.Logger
}

func (c *Config) setDefaults() {
	if c.MaxActive < 1 {
		c.MaxActive = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 16
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 500 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.MaxUploadBytes <= 0 {
		if per := c.perJobMemory(); per > 0 {
			c.MaxUploadBytes = per
		} else {
			c.MaxUploadBytes = 1 << 30
		}
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
}

func (c *Config) perJobMemory() int64 {
	if c.MaxMemoryBytes <= 0 {
		return 0
	}
	return c.MaxMemoryBytes / int64(c.MaxActive)
}

// stopCause records why a running attempt's context was cancelled, so the
// runner can classify the resulting context error.
type stopCause int

const (
	causeNone   stopCause = iota
	causeCancel           // user asked for cancellation → terminal cancelled
	causeDelete           // user asked for deletion → directory removed
	causeDrain            // server drain → requeued without attempt penalty
)

// Job is one discovery job. All mutable fields are guarded by mu; the
// manifest on disk is the durable source of truth and is rewritten
// (write-ahead) at every transition.
type Job struct {
	id  string
	dir string

	mu          sync.Mutex
	man         Manifest
	cancel      context.CancelFunc // non-nil while an attempt runs
	cause       stopCause
	retryTimer  *time.Timer
	nextRetry   time.Time
	resultReady bool
	prog        obs.Progress
	hasProg     bool

	// fileMu serializes manifest writes so concurrent persists (runner vs.
	// an HTTP cancel) cannot interleave their temp-file renames.
	fileMu sync.Mutex

	// events fans job lifecycle out to SSE subscribers; created lazily so
	// jobs without streamers pay one pointer.
	eventsOnce sync.Once
	events     *eventHub
}

// Report implements obs.Reporter: the engine delivers live Progress samples
// here; the status endpoint serves the latest one and every SSE stream
// receives it as a "progress" event.
func (j *Job) Report(p obs.Progress) {
	j.mu.Lock()
	j.prog, j.hasProg = p, true
	j.mu.Unlock()
	j.publishProgress(progressDoc(p))
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// persist snapshots the manifest under the job lock and writes it outside
// of it (no file I/O while holding mu). Used where the job is not yet (or
// no longer) visible to concurrent mutators: submission and recovery.
func (j *Job) persist() error {
	j.mu.Lock()
	man := j.man
	j.mu.Unlock()
	j.fileMu.Lock()
	defer j.fileMu.Unlock()
	return writeJSONAtomic(manifestPath(j.dir), &man)
}

// transition applies one state change atomically with respect to every
// other transition of the same job: stage a copy of the manifest, let
// mutate rewrite it (or decline by returning false), persist the staged
// copy, then publish it in memory. Disk-before-memory means an observer
// never reads a state the manifest does not already record — the
// write-ahead property the crash recovery relies on. A non-nil error
// reports a failed disk write; the new state is still live in memory
// (durability degraded, not correctness).
//
// Every state change that goes through here is also fanned out to the
// job's SSE subscribers: a "state" event, plus the sticky "done" event
// when the new state is terminal. Publishing after the in-memory
// publish (still under fileMu) keeps the event order identical to the
// observable state order.
func (j *Job) transition(mutate func(man *Manifest) bool) (bool, error) {
	j.fileMu.Lock()
	defer j.fileMu.Unlock()
	j.mu.Lock()
	man := j.man
	j.mu.Unlock()
	old := man.State
	if !mutate(&man) {
		return false, nil
	}
	err := writeJSONAtomic(manifestPath(j.dir), &man)
	j.mu.Lock()
	j.man = man
	resultReady := j.resultReady
	j.mu.Unlock()
	if man.State != old {
		j.publishState(&man)
		if man.State.Terminal() {
			j.publishDone(man.State, resultReady)
		}
	}
	return true, err
}

// Manager owns the job set: admission, scheduling, retries, recovery and
// drain. Create one with Open, start its scheduler with Start.
type Manager struct {
	cfg Config

	mu             sync.Mutex
	jobs           map[string]*Job
	queue          []*Job // runnable now, FIFO
	pendingRetries int    // jobs waiting out a backoff timer
	reserved       int    // submissions between admission check and enqueue
	active         int
	draining       bool

	kick chan struct{} // wakes the scheduler; capacity 1

	// rng drives the backoff jitter. Guarded by rngMu (math/rand sources are
	// not safe for concurrent use); tests swap in a fixed seed.
	rngMu sync.Mutex
	rng   *mrand.Rand

	wg sync.WaitGroup // scheduler + runner goroutines

	mSubmitted, mCompleted, mFailed, mCancelled *obs.Counter
	mRejected, mRetries, mResumed, mRecovered   *obs.Counter
	gActive, gQueued                            *obs.Gauge
}

// Open creates the data directory if needed, recovers every job recorded on
// disk (requeueing interrupted/crashed ones) and returns a Manager ready
// for Start.
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("jobs: Config.Dir is required")
	}
	cfg.setDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	m := &Manager{
		cfg:  cfg,
		jobs: make(map[string]*Job),
		kick: make(chan struct{}, 1),
		rng:  mrand.New(mrand.NewSource(randomSeed())),

		mSubmitted: cfg.Metrics.Counter("jobs.submitted"),
		mCompleted: cfg.Metrics.Counter("jobs.completed"),
		mFailed:    cfg.Metrics.Counter("jobs.failed"),
		mCancelled: cfg.Metrics.Counter("jobs.cancelled"),
		mRejected:  cfg.Metrics.Counter("jobs.rejected"),
		mRetries:   cfg.Metrics.Counter("jobs.retries"),
		mResumed:   cfg.Metrics.Counter("jobs.resumed"),
		mRecovered: cfg.Metrics.Counter("jobs.recovered"),
		gActive:    cfg.Metrics.Gauge("jobs.active"),
		gQueued:    cfg.Metrics.Gauge("jobs.queued"),
	}
	if err := m.recover(); err != nil {
		return nil, err
	}
	return m, nil
}

// recover scans the data directory and rebuilds the in-memory job set from
// the persisted manifests. Jobs found "running" crashed mid-attempt: they
// are requeued for a resume, or failed for good once the attempt budget is
// spent (the poison cap also catches crash loops).
func (m *Manager) recover() error {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	// ReadDir returns sorted entries; re-sort by creation time below so the
	// recovered queue preserves submission order.
	var requeue []*Job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(m.cfg.Dir, e.Name())
		man, err := readManifest(manifestPath(dir))
		if err != nil {
			if os.IsNotExist(err) {
				// A crash between MkdirAll and the first manifest write
				// leaves an empty husk; sweep it.
				m.cfg.Logger.Warn("recover: removing manifest-less dir", "dir", dir)
				if rmErr := os.RemoveAll(dir); rmErr != nil {
					m.cfg.Logger.Warn("recover: cleanup failed", "dir", dir, "error", rmErr)
				}
				continue
			}
			m.cfg.Logger.Warn("recover: skipping unreadable manifest", "dir", dir, "error", err)
			continue
		}
		j := &Job{id: man.ID, dir: dir, man: *man}
		if _, err := os.Stat(resultPath(dir)); err == nil {
			j.resultReady = true
		}
		switch man.State {
		case StateQueued:
			// Re-admit immediately: any backoff window it was in elapsed
			// (at least partially) while the process was down.
			requeue = append(requeue, j)
		case StateRunning:
			interrupted := man.Interrupted
			j.man.Interrupted = false
			if !interrupted && man.Attempts >= m.cfg.MaxAttempts {
				j.man.State = StateFailed
				if j.man.ErrorKind == "" {
					j.man.ErrorKind = KindCrash
				}
				if j.man.Error == "" {
					j.man.Error = fmt.Sprintf("process crashed during attempt %d/%d", man.Attempts, m.cfg.MaxAttempts)
				}
				j.man.UpdatedAt = time.Now().UTC()
				if err := j.persist(); err != nil {
					m.cfg.Logger.Error("recover: persist failed", "job_id", j.id, "error", err)
				}
				m.mFailed.Inc()
				m.cfg.Logger.Warn("recover: job poisoned after crashed attempts",
					"job_id", j.id, "name", man.Name, "attempt", man.Attempts)
			} else {
				j.man.State = StateQueued
				j.man.UpdatedAt = time.Now().UTC()
				if err := j.persist(); err != nil {
					m.cfg.Logger.Error("recover: persist failed", "job_id", j.id, "error", err)
				}
				requeue = append(requeue, j)
				m.mRecovered.Inc()
				m.cfg.Logger.Info("recover: job requeued",
					"job_id", j.id, "name", man.Name, "attempt", man.Attempts, "interrupted", interrupted)
			}
		}
		// Jobs recovered already terminal close their hub immediately, so
		// an SSE subscriber connecting after a restart still gets `done`.
		if j.man.State.Terminal() {
			j.publishDone(j.man.State, j.resultReady)
		}
		m.jobs[j.id] = j
	}
	sort.Slice(requeue, func(a, b int) bool {
		ja, jb := requeue[a], requeue[b]
		if !ja.man.CreatedAt.Equal(jb.man.CreatedAt) {
			return ja.man.CreatedAt.Before(jb.man.CreatedAt)
		}
		return ja.id < jb.id
	})
	m.queue = requeue
	m.gQueued.Set(int64(len(requeue)))
	return nil
}

// Start launches the scheduler goroutine. It dispatches queued jobs into
// free worker slots until ctx ends; Wait blocks until every goroutine the
// manager spawned has exited.
func (m *Manager) Start(ctx context.Context) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			m.dispatch(ctx)
			select {
			case <-ctx.Done():
				return
			case <-m.kick:
			}
		}
	}()
}

// Wait blocks until the scheduler and all runner goroutines have exited
// (i.e. after the Start context ends and in-flight attempts observe it).
func (m *Manager) Wait() { m.wg.Wait() }

func (m *Manager) kickSched() {
	select {
	case m.kick <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// dispatch moves queued jobs into free slots.
func (m *Manager) dispatch(ctx context.Context) {
	for {
		m.mu.Lock()
		if m.draining || m.active >= m.cfg.MaxActive || len(m.queue) == 0 {
			m.mu.Unlock()
			return
		}
		j := m.queue[0]
		m.queue = m.queue[1:]
		m.gQueued.Add(-1)
		m.active++
		m.gActive.Add(1)
		m.mu.Unlock()

		jctx, cancel := context.WithCancel(ctx)
		j.mu.Lock()
		j.cancel = cancel
		j.cause = causeNone
		j.nextRetry = time.Time{}
		j.mu.Unlock()
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			defer cancel()
			m.runJob(jctx, j)
		}()
	}
}

// Submit admits a new job: the CSV in src is streamed to disk, the
// write-ahead manifest is persisted, and the job joins the bounded queue.
// Admission errors are typed: ErrDraining, ErrQueueFull, ErrTooLarge,
// ErrBadInput.
func (m *Manager) Submit(ctx context.Context, name string, src io.Reader, opts JobOptions) (*Job, error) {
	if name == "" {
		name = "job"
	}
	if !validName(name) {
		return nil, fmt.Errorf("%w: bad job name %q (want 1-64 chars of [A-Za-z0-9._-])", ErrBadInput, name)
	}
	if len(opts.Delimiter) > 1 {
		return nil, fmt.Errorf("%w: delimiter must be a single character", ErrBadInput)
	}
	// Free-space floor: refuse work the volume cannot carry (input copy,
	// checkpoints, result, trace) rather than admit a job doomed to degrade.
	// An unreadable filesystem stat (free < 0) fails open — the gate protects
	// against a full disk, not a missing statfs syscall.
	if m.cfg.MinFreeBytes > 0 {
		if free := diskFree(m.cfg.Dir); free >= 0 && free < m.cfg.MinFreeBytes {
			m.mRejected.Inc()
			return nil, fmt.Errorf("%w: %d bytes free on %s, floor is %d", ErrLowDisk, free, m.cfg.Dir, m.cfg.MinFreeBytes)
		}
	}

	// Reserve a queue slot before touching the disk so concurrent
	// submissions cannot overshoot QueueDepth.
	m.mu.Lock()
	switch {
	case m.draining:
		m.mu.Unlock()
		m.mRejected.Inc()
		return nil, ErrDraining
	case len(m.queue)+m.pendingRetries+m.reserved >= m.cfg.QueueDepth:
		m.mu.Unlock()
		m.mRejected.Inc()
		return nil, ErrQueueFull
	}
	m.reserved++
	m.mu.Unlock()
	release := func() {
		m.mu.Lock()
		m.reserved--
		m.mu.Unlock()
	}

	id, err := newID()
	if err != nil {
		release()
		return nil, err
	}
	dir := filepath.Join(m.cfg.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		release()
		return nil, fmt.Errorf("jobs: %w", err)
	}
	// The job directory's entry must survive a power cut before the
	// manifest inside it can.
	syncDir(m.cfg.Dir)
	n, err := copyInput(inputPath(dir), src, m.cfg.MaxUploadBytes)
	if err != nil {
		release()
		if rmErr := os.RemoveAll(dir); rmErr != nil {
			m.cfg.Logger.Warn("submit: cleanup failed", "dir", dir, "error", rmErr)
		}
		if errors.Is(err, ErrTooLarge) {
			m.mRejected.Inc()
		}
		return nil, err
	}

	now := time.Now().UTC()
	j := &Job{
		id:  id,
		dir: dir,
		man: Manifest{
			ID:        id,
			Name:      name,
			State:     StateQueued,
			Options:   opts,
			CreatedAt: now,
			UpdatedAt: now,
		},
	}
	// Write-ahead: the manifest must be durable before the job is visible,
	// so a crash right after admission still recovers it.
	if err := j.persist(); err != nil {
		release()
		if rmErr := os.RemoveAll(dir); rmErr != nil {
			m.cfg.Logger.Warn("submit: cleanup failed", "dir", dir, "error", rmErr)
		}
		return nil, err
	}

	m.mu.Lock()
	m.reserved--
	if m.draining {
		// Drain started while we were writing; reject late rather than run.
		m.mu.Unlock()
		if rmErr := os.RemoveAll(dir); rmErr != nil {
			m.cfg.Logger.Warn("submit: cleanup failed", "dir", dir, "error", rmErr)
		}
		m.mRejected.Inc()
		return nil, ErrDraining
	}
	m.jobs[id] = j
	m.queue = append(m.queue, j)
	m.gQueued.Add(1)
	m.mu.Unlock()

	m.mSubmitted.Inc()
	m.cfg.Logger.Info("job admitted", "job_id", id, "name", name, "bytes", n)
	m.kickSched()
	return j, nil
}

// copyInput streams src to path, rejecting inputs beyond max bytes. An
// accepted input is fsynced: the write-ahead manifest that names it is
// written next, and must never outlive it. The manifest write fsyncs the
// job directory, which makes the input's directory entry durable too.
func copyInput(path string, src io.Reader, max int64) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("jobs: %w", err)
	}
	n, err := io.Copy(f, io.LimitReader(src, max+1))
	if err != nil {
		f.Close() // the copy error is the one to report
		return n, fmt.Errorf("jobs: reading dataset: %w", err)
	}
	if n > max {
		f.Close() // the input is rejected and removed
		return n, fmt.Errorf("%w (cap %d bytes)", ErrTooLarge, max)
	}
	if err := f.Sync(); err != nil {
		f.Close() // the sync error is the one to report
		return n, fmt.Errorf("jobs: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return n, fmt.Errorf("jobs: %w", err)
	}
	return n, nil
}

func newID() (string, error) {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobs: %w", err)
	}
	return "j" + hex.EncodeToString(b[:]), nil
}

// randomSeed draws a PRNG seed from the OS entropy source; jitter quality is
// not worth failing Open over, so exhaustion falls back to a constant (the
// jitter is then merely deterministic, not absent).
func randomSeed() int64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 1
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// attemptOutcome is what one attempt produced, handed to finishAttempt for
// classification.
type attemptOutcome struct {
	tbl     *ocd.Table
	res     *ocd.Result
	resumed bool
	err     error
}

// runJob executes one attempt of j and classifies the outcome. It owns the
// job's worker slot; the slot is released on return.
func (m *Manager) runJob(ctx context.Context, j *Job) {
	defer func() {
		m.mu.Lock()
		m.active--
		m.mu.Unlock()
		m.gActive.Add(-1)
		m.kickSched()
	}()

	// Write-ahead: "running" with the incremented attempt counter hits the
	// disk before any work happens, so a crash from here on is charged as a
	// started attempt.
	var name string
	var attempt int
	started, err := j.transition(func(man *Manifest) bool {
		if man.State != StateQueued {
			return false // cancelled or deleted between dispatch and here
		}
		man.Attempts++
		man.State = StateRunning
		man.Interrupted = false
		man.UpdatedAt = time.Now().UTC()
		name = man.Name
		attempt = man.Attempts
		return true
	})
	if err != nil {
		m.cfg.Logger.Error("manifest persist failed", "job_id", j.id, "error", err)
	}
	if !started {
		j.mu.Lock()
		j.cancel = nil
		j.mu.Unlock()
		return
	}
	m.cfg.Logger.Info("attempt starting",
		"job_id", j.id, "name", name, "attempt", attempt, "max_attempts", m.cfg.MaxAttempts)

	out := m.runAttempt(ctx, j, name)
	m.finishAttempt(j, out)
}

// testHookBeforeRun, when non-nil, runs at the start of every attempt.
// Tests use it to hold a job deterministically in the running state (block
// on ctx) or to poison it (panic).
var testHookBeforeRun func(ctx context.Context, name string)

// runAttempt loads the input and runs discovery, resuming from the job's
// snapshot when one exists. Panics — including injected poison faults — are
// caught here so one bad job never takes the server down.
//
// Each attempt records its span tree (load → levels → worker batches)
// and persists it as Chrome trace_event JSON in the job directory on
// the way out — panic, error or success — where GET /jobs/{id}/trace
// serves it. Span creation is phase-granular, so the capture costs
// nothing on the per-check hot path.
func (m *Manager) runAttempt(ctx context.Context, j *Job, name string) (out attemptOutcome) {
	defer func() {
		if v := recover(); v != nil {
			out.err = &runnerPanic{val: v, stack: debug.Stack()}
		}
	}()
	tr := obs.NewTracer("job:" + name)
	defer func() {
		tr.Finish()
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			m.cfg.Logger.Warn("trace encode failed", "job_id", j.id, "error", err)
			return
		}
		if err := writeBytesAtomic(tracePath(j.dir), buf.Bytes()); err != nil {
			m.cfg.Logger.Warn("trace persist failed", "job_id", j.id, "error", err)
		}
	}()
	// Per-job fault point: `OCD_FAULT="jobs.run.<name>:panic:*"` poisons
	// every attempt of that job and no one else's.
	faultinject.Point("jobs.run." + name)
	if testHookBeforeRun != nil {
		testHookBeforeRun(ctx, name)
	}

	j.mu.Lock()
	opts := j.man.Options
	j.mu.Unlock()

	f, err := os.Open(inputPath(j.dir))
	if err != nil {
		out.err = err
		return out
	}
	// Ingestion streams, so a server under a memory budget never holds the
	// whole CSV as raw strings.
	lo := append(loadOptions(ctx, opts), ocd.WithTrace(tr.Root()))
	tbl, err := ocd.LoadCSV(f, name, lo...)
	f.Close() // read-only file, the load error dominates
	if err != nil {
		out.err = err
		return out
	}
	out.tbl = tbl

	dopts := ocd.Options{
		Workers:        opts.Workers,
		Timeout:        opts.Timeout,
		MaxCandidates:  opts.MaxCandidates,
		MaxLevel:       opts.MaxLevel,
		Columns:        opts.Columns,
		MaxMemoryBytes: m.cfg.MaxMemoryBytes,
		CheckpointPath: snapshotPath(j.dir),
		Reporter:       j,
		Trace:          tr.Root(),
	}
	if _, statErr := os.Stat(snapshotPath(j.dir)); statErr == nil {
		dopts.ResumeFrom = snapshotPath(j.dir)
		out.resumed = true
		m.mResumed.Inc()
	}
	out.res, out.err = tbl.DiscoverContext(ctx, dopts)
	return out
}

func loadOptions(ctx context.Context, opts JobOptions) []ocd.LoadOption {
	lo := []ocd.LoadOption{ocd.WithContext(ctx)}
	if opts.ForceString {
		lo = append(lo, ocd.ForceString())
	}
	if opts.NoHeader {
		lo = append(lo, ocd.NoHeader())
	}
	if opts.Delimiter != "" {
		lo = append(lo, ocd.Delimiter(rune(opts.Delimiter[0])))
	}
	return lo
}

// finishAttempt classifies one attempt's outcome and drives the state
// machine: completion, typed terminal failures, drain requeue, user
// cancel/delete, and panic retry with backoff up to the poison cap.
func (m *Manager) finishAttempt(j *Job, out attemptOutcome) {
	j.mu.Lock()
	cause := j.cause
	j.cancel = nil
	attempts := j.man.Attempts
	name := j.man.Name
	j.mu.Unlock()

	now := time.Now().UTC()
	ctxErr := out.err != nil && (errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded))

	switch {
	case cause == causeDelete:
		j.publishDone(StateDeleted, false)
		// Remove the directory before the job leaves the table, so a job
		// the API no longer lists has nothing left on disk.
		if err := os.RemoveAll(j.dir); err != nil {
			m.cfg.Logger.Error("delete failed", "job_id", j.id, "error", err)
		}
		m.forget(j)
		m.cfg.Logger.Info("job deleted mid-run", "job_id", j.id, "name", name)
		return

	case out.err == nil:
		// Done — possibly truncated (timeout, caps, memory budget), which
		// is a partial *success* per the engine contract. The result hits
		// the disk before the manifest flips, so "completed" always implies
		// a readable result.json.
		if err := m.writeResult(j, out); err != nil {
			m.cfg.Logger.Error("result persist failed", "job_id", j.id, "error", err)
			m.failJob(j, now, KindInternal, err.Error(), "")
			break
		}
		j.mu.Lock()
		j.resultReady = true
		j.mu.Unlock()
		if _, err := j.transition(func(man *Manifest) bool {
			man.State = StateCompleted
			man.TruncateReason = string(out.res.Stats.TruncateReason)
			man.Error, man.ErrorKind, man.Stack = "", "", ""
			man.UpdatedAt = now
			return true
		}); err != nil {
			m.cfg.Logger.Error("manifest persist failed", "job_id", j.id, "error", err)
		}
		m.mCompleted.Inc()
		m.cfg.Logger.Info("job completed",
			"job_id", j.id, "name", name, "attempt", attempts,
			"ocds", len(out.res.OCDs), "resumed", out.resumed)

	case errors.Is(out.err, ocd.ErrCheckpointMismatch):
		// The dataset changed under the snapshot: deterministic, terminal.
		m.failJob(j, now, KindCheckpointMismatch, out.err.Error(), "")
		m.cfg.Logger.Error("checkpoint mismatch", "job_id", j.id, "name", name, "error", out.err)

	case errors.Is(out.err, ocd.ErrCheckpointCorrupt):
		m.failJob(j, now, KindCheckpointCorrupt, out.err.Error(), "")
		m.cfg.Logger.Error("checkpoint corrupt", "job_id", j.id, "name", name, "error", out.err)

	case errors.Is(out.err, ocd.ErrCheckpointVersion):
		m.failJob(j, now, KindCheckpointVersion, out.err.Error(), "")
		m.cfg.Logger.Error("checkpoint version unsupported", "job_id", j.id, "name", name, "error", out.err)

	case cause == causeDrain && ctxErr:
		// Graceful drain: the engine already wrote a stop snapshot; requeue
		// without charging the attempt budget so a drain loop can never
		// poison a healthy job.
		if _, err := j.transition(func(man *Manifest) bool {
			man.State = StateQueued
			man.Interrupted = true
			man.Attempts--
			man.UpdatedAt = now
			return true
		}); err != nil {
			m.cfg.Logger.Error("manifest persist failed", "job_id", j.id, "error", err)
		}
		m.cfg.Logger.Info("attempt interrupted by drain, checkpointed for resume",
			"job_id", j.id, "name", name, "attempt", attempts, "drain", true)

	case ctxErr:
		// User cancel (or the server's root context died): terminal, but
		// whatever was validated before the stop is preserved.
		if out.res != nil {
			if err := m.writeResult(j, out); err != nil {
				m.cfg.Logger.Error("partial result persist failed", "job_id", j.id, "error", err)
			} else {
				j.mu.Lock()
				j.resultReady = true
				j.mu.Unlock()
			}
		}
		if _, err := j.transition(func(man *Manifest) bool {
			man.State = StateCancelled
			if out.res != nil {
				man.TruncateReason = string(out.res.Stats.TruncateReason)
			}
			man.UpdatedAt = now
			return true
		}); err != nil {
			m.cfg.Logger.Error("manifest persist failed", "job_id", j.id, "error", err)
		}
		m.mCancelled.Inc()
		m.cfg.Logger.Info("job cancelled", "job_id", j.id, "name", name, "attempt", attempts)

	case errors.Is(out.err, ocd.ErrWorkerPanic), errors.Is(out.err, errRunnerPanic):
		kind := KindWorkerPanic
		if errors.Is(out.err, errRunnerPanic) {
			kind = KindRunnerPanic
		}
		stack := panicStack(out.err)
		if attempts >= m.cfg.MaxAttempts {
			// Poison cap: give up, keep the evidence, stay healthy.
			if out.res != nil {
				if err := m.writeResult(j, out); err != nil {
					m.cfg.Logger.Error("partial result persist failed", "job_id", j.id, "error", err)
				} else {
					j.mu.Lock()
					j.resultReady = true
					j.mu.Unlock()
				}
			}
			m.failJob(j, now, kind, out.err.Error(), stack)
			m.cfg.Logger.Error("job poisoned",
				"job_id", j.id, "name", name, "attempt", attempts, "error", out.err)
		} else {
			if _, err := j.transition(func(man *Manifest) bool {
				man.State = StateQueued
				man.Error = out.err.Error()
				man.ErrorKind = kind
				man.Stack = stack
				man.UpdatedAt = now
				return true
			}); err != nil {
				m.cfg.Logger.Error("manifest persist failed", "job_id", j.id, "error", err)
			}
			m.mRetries.Inc()
			delay := m.backoff(attempts)
			m.cfg.Logger.Warn("attempt panicked, retrying",
				"job_id", j.id, "name", name, "attempt", attempts,
				"max_attempts", m.cfg.MaxAttempts, "delay", delay, "error", out.err)
			m.scheduleRetry(j, delay)
		}

	default:
		// Deterministic input/engine error (CSV parse, unknown column, …):
		// a retry would fail identically, so fail now.
		m.failJob(j, now, KindInput, out.err.Error(), "")
		m.cfg.Logger.Warn("job failed", "job_id", j.id, "name", name, "error", out.err)
	}
}

// failJob transitions j to the terminal failed state with its evidence.
func (m *Manager) failJob(j *Job, now time.Time, kind, msg, stack string) {
	if _, err := j.transition(func(man *Manifest) bool {
		man.State = StateFailed
		man.ErrorKind = kind
		man.Error = msg
		man.Stack = stack
		man.UpdatedAt = now
		return true
	}); err != nil {
		m.cfg.Logger.Error("manifest persist failed", "job_id", j.id, "error", err)
	}
	m.mFailed.Inc()
}

// panicStack extracts the recorded stack trace from a panic error chain.
func panicStack(err error) string {
	var rp *runnerPanic
	if errors.As(err, &rp) {
		return string(rp.stack)
	}
	var pe *core.PanicError
	if errors.As(err, &pe) {
		return string(pe.Stack)
	}
	return ""
}

// backoffCeiling returns the exponential envelope after `attempts` started
// attempts: base<<(attempts-1) clamped to the cap.
func (m *Manager) backoffCeiling(attempts int) time.Duration {
	d := m.cfg.BackoffBase
	for i := 1; i < attempts; i++ {
		d *= 2
		if d >= m.cfg.BackoffCap {
			return m.cfg.BackoffCap
		}
	}
	if d > m.cfg.BackoffCap {
		d = m.cfg.BackoffCap
	}
	return d
}

// backoff returns the delay before retrying after `attempts` started
// attempts: a full-jitter draw, uniform in [0, backoffCeiling(attempts)].
// Correlated failures (several jobs felled by the same cause at the same
// instant) thereby retry spread out instead of in lockstep.
func (m *Manager) backoff(attempts int) time.Duration {
	ceil := m.backoffCeiling(attempts)
	if ceil <= 0 {
		return 0
	}
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	return time.Duration(m.rng.Int63n(int64(ceil) + 1))
}

// scheduleRetry parks j for delay, then re-admits it. During a drain the
// timer is not armed: the job stays "queued" on disk and resumes on the
// next server start instead.
func (m *Manager) scheduleRetry(j *Job, delay time.Duration) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return
	}
	m.pendingRetries++
	m.gQueued.Add(1)
	m.mu.Unlock()
	j.mu.Lock()
	j.nextRetry = time.Now().Add(delay)
	j.retryTimer = time.AfterFunc(delay, func() { m.enqueueRetry(j) })
	j.mu.Unlock()
}

func (m *Manager) enqueueRetry(j *Job) {
	j.mu.Lock()
	j.retryTimer = nil
	j.nextRetry = time.Time{}
	state := j.man.State
	j.mu.Unlock()
	m.mu.Lock()
	m.pendingRetries--
	m.gQueued.Add(-1)
	if state == StateQueued && !m.draining {
		m.queue = append(m.queue, j)
		m.gQueued.Add(1)
	}
	m.mu.Unlock()
	m.kickSched()
}

func (m *Manager) get(id string) (*Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j, nil
}

func (m *Manager) forget(j *Job) {
	m.mu.Lock()
	delete(m.jobs, j.id)
	m.mu.Unlock()
}

// removeFromQueue drops j from the runnable queue if present.
func (m *Manager) removeFromQueue(j *Job) {
	m.mu.Lock()
	for i, q := range m.queue {
		if q == j {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			m.gQueued.Add(-1)
			break
		}
	}
	m.mu.Unlock()
}

// stopRetryTimer stops a pending backoff timer for j, fixing the pending
// count if the timer had not fired yet.
func (m *Manager) stopRetryTimer(j *Job) {
	j.mu.Lock()
	t := j.retryTimer
	j.retryTimer = nil
	j.nextRetry = time.Time{}
	j.mu.Unlock()
	if t != nil && t.Stop() {
		m.mu.Lock()
		m.pendingRetries--
		m.gQueued.Add(-1)
		m.mu.Unlock()
	}
}

// Cancel stops a job. A queued job turns cancelled immediately; a running
// job's attempt is cancelled cooperatively and turns cancelled (with any
// partial result preserved) when the engine stops. Cancelling a terminal
// job is a no-op.
func (m *Manager) Cancel(id string) error {
	j, err := m.get(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.man.State == StateRunning && j.cancel != nil {
		if j.cause == causeNone {
			j.cause = causeCancel
		}
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		return nil
	}
	j.mu.Unlock()
	changed, perr := j.transition(func(man *Manifest) bool {
		// Terminal: no-op. Running with no cancel func: the attempt is in
		// its finishing window and will land in a settled state on its own.
		if man.State.Terminal() || man.State == StateRunning {
			return false
		}
		man.State = StateCancelled
		man.UpdatedAt = time.Now().UTC()
		return true
	})
	if changed {
		m.stopRetryTimer(j)
		m.removeFromQueue(j)
		m.mCancelled.Inc()
	}
	return perr
}

// Delete removes a job and its directory. A running job is cancelled first
// and removed when its attempt stops; done=false then means the removal is
// in flight.
func (m *Manager) Delete(id string) (done bool, err error) {
	j, err := m.get(id)
	if err != nil {
		return false, err
	}
	j.mu.Lock()
	if j.man.State == StateRunning && j.cancel != nil {
		j.cause = causeDelete
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		return false, nil
	}
	j.mu.Unlock()
	// Flip the state (durably ordered against any racing attempt start) so
	// a dispatched or retrying job declines to run, then drop everything.
	changed, _ := j.transition(func(man *Manifest) bool { // lint:allow errdrop — the directory is removed below, so a failed manifest write is moot
		if man.State == StateRunning {
			return false // finishing window: the runner settles it first
		}
		man.State = StateCancelled
		return true
	})
	if !changed {
		// The attempt is settling right now; the client retries the delete
		// once it lands (the usual poll-then-delete flow).
		return false, nil
	}
	m.stopRetryTimer(j)
	m.removeFromQueue(j)
	m.forget(j)
	return true, os.RemoveAll(j.dir)
}

// Drain stops admissions, cancels running attempts so they checkpoint and
// persist as interrupted, parks backoff timers, and waits (bounded by ctx)
// for every worker slot to empty. After a clean drain the data directory is
// a complete picture: the next Open resumes exactly where this server
// stopped.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	all := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		all = append(all, j)
	}
	active := m.active
	m.mu.Unlock()
	m.cfg.Logger.Info("drain: admissions stopped", "in_flight", active)

	for _, j := range all {
		m.stopRetryTimer(j)
		j.mu.Lock()
		var cancel context.CancelFunc
		if j.man.State == StateRunning && j.cancel != nil && j.cause == causeNone {
			j.cause = causeDrain
			cancel = j.cancel
		}
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}

	for {
		m.mu.Lock()
		n := m.active
		m.mu.Unlock()
		if n == 0 {
			m.cfg.Logger.Info("drain: complete")
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("jobs: drain: %w", ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Metrics returns the manager's metrics registry, for serving scrapes
// and wiring the HTTP middleware onto the same instrument set.
func (m *Manager) Metrics() *obs.Registry { return m.cfg.Metrics }

// Logger returns the manager's structured logger (never nil after Open).
func (m *Manager) Logger() *slog.Logger { return m.cfg.Logger }

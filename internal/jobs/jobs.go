// Package jobs turns discovery runs into durable, crash-tolerant jobs — the
// engine behind cmd/ocdserve. A job owns a directory under the manager's
// data dir holding four files:
//
//	<dir>/<id>/manifest.json  write-ahead job record (state machine below)
//	<dir>/<id>/input.csv      the submitted dataset, verbatim
//	<dir>/<id>/job.ckpt       traversal snapshot (written at level barriers)
//	<dir>/<id>/result.json    the final ResultDoc, written atomically
//
// The manifest is written *before* every state transition takes effect
// (write-ahead), so a crash at any instant leaves a record the next Open can
// classify: a manifest persisted as "running" means the process died
// mid-attempt and the job is requeued (or declared poisoned once the attempt
// budget is spent); "queued" jobs are simply re-admitted; terminal states
// are served as-is. The snapshot makes the requeue cheap — the attempt
// resumes from the last completed level barrier instead of from scratch.
//
// Job lifecycle:
//
//	queued ──▶ running ──▶ completed            (result.json written first)
//	  ▲           │
//	  │           ├──▶ cancelled                (user cancel; partial result)
//	  └─ backoff ◀┤                             (panic/crash, attempts left)
//	              └──▶ failed                   (poison cap, typed checkpoint
//	                                             errors, bad input)
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// State is a job's lifecycle state; it is persisted verbatim in the
// manifest and rendered in status documents.
type State string

const (
	// StateQueued: admitted, waiting for a worker slot (possibly in a
	// retry-backoff window, or interrupted by a drain and awaiting restart).
	StateQueued State = "queued"
	// StateRunning: an attempt is executing right now. Found persisted on
	// disk at startup, it means the previous process crashed mid-attempt.
	StateRunning State = "running"
	// StateCompleted: result.json holds the full (possibly truncated)
	// discovery result. Terminal.
	StateCompleted State = "completed"
	// StateFailed: the job gave up — poison cap reached, checkpoint
	// mismatch/corruption, or unreadable input. Terminal.
	StateFailed State = "failed"
	// StateCancelled: stopped by user request; a partial result may exist.
	// Terminal.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final: no further attempts run and
// the job only changes by deletion.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCancelled
}

// Error kinds recorded in Manifest.ErrorKind — the typed taxonomy of ways a
// job can fail, so clients can branch without parsing error strings.
const (
	// KindWorkerPanic: a discovery worker panicked (ocd.ErrWorkerPanic);
	// retried until the attempt budget is spent.
	KindWorkerPanic = "worker-panic"
	// KindRunnerPanic: the job runner itself panicked outside the engine
	// (includes injected poison faults); retried like a worker panic.
	KindRunnerPanic = "runner-panic"
	// KindCrash: the process died mid-attempt (manifest found as "running"
	// at startup with no attempts left).
	KindCrash = "crash"
	// KindCheckpointMismatch: the snapshot does not belong to the input
	// (dataset changed under the job). Terminal immediately — a retry
	// would fail identically.
	KindCheckpointMismatch = "checkpoint-mismatch"
	// KindCheckpointCorrupt: the snapshot file is torn or damaged.
	// Terminal immediately.
	KindCheckpointCorrupt = "checkpoint-corrupt"
	// KindCheckpointVersion: the snapshot was written in another format
	// version, say by an older build. Terminal immediately; deleting the
	// job and resubmitting it runs from scratch.
	KindCheckpointVersion = "checkpoint-version"
	// KindInput: the dataset or options are unusable (CSV parse error,
	// unknown column, …). Terminal — deterministic, retries cannot help.
	KindInput = "input"
	// KindInternal: the manager itself failed (result persistence, …).
	KindInternal = "internal"
)

// JobOptions is the client-settable, JSON-serializable subset of discovery
// and load options. It is persisted in the manifest so a resumed attempt
// runs with exactly the submitted configuration.
type JobOptions struct {
	// Workers per attempt (0 = all CPUs).
	Workers int `json:"workers,omitempty"`
	// Timeout bounds one attempt's wall clock; on expiry the job completes
	// with truncate_reason "timeout" (partial results, not a failure).
	Timeout time.Duration `json:"timeout,omitempty"`
	// MaxCandidates / MaxLevel bound the traversal (0 = unlimited).
	MaxCandidates int64 `json:"max_candidates,omitempty"`
	MaxLevel      int   `json:"max_level,omitempty"`
	// Columns restricts discovery to the named columns (nil = all).
	Columns []string `json:"columns,omitempty"`
	// ForceString / NoHeader / Delimiter mirror the load options.
	ForceString bool   `json:"force_string,omitempty"`
	NoHeader    bool   `json:"no_header,omitempty"`
	Delimiter   string `json:"delimiter,omitempty"`
	// ExpandLimit materializes up to n expanded ODs in the result document
	// (0 = only the count).
	ExpandLimit int `json:"expand_limit,omitempty"`
}

// Manifest is the write-ahead job record. Every state transition persists
// it atomically (temp + fsync + rename) before the transition is
// externally visible, so crash recovery always finds a coherent record.
type Manifest struct {
	ID      string     `json:"id"`
	Name    string     `json:"name"`
	State   State      `json:"state"`
	Options JobOptions `json:"options"`
	// Attempts counts started attempts (incremented and persisted before
	// each run begins, so a crash mid-attempt is charged to the budget).
	Attempts int `json:"attempts"`
	// Interrupted marks a graceful-drain stop: the attempt was cancelled to
	// let the server exit, checkpointed, and does not count against the
	// attempt budget. Cleared when the job next starts.
	Interrupted bool `json:"interrupted,omitempty"`
	// Error/ErrorKind/Stack describe the most recent failure (kept across
	// retries so a queued job shows why it is backing off).
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
	Stack     string `json:"stack,omitempty"`
	// TruncateReason is the engine's partial-result reason on completion
	// ("", "timeout", "candidate-cap", …).
	TruncateReason string    `json:"truncate_reason,omitempty"`
	CreatedAt      time.Time `json:"created_at"`
	UpdatedAt      time.Time `json:"updated_at"`
}

// File names inside a job directory.
const (
	manifestFile = "manifest.json"
	inputFile    = "input.csv"
	snapshotFile = "job.ckpt"
	resultFile   = "result.json"
	traceFile    = "trace.json"
)

func manifestPath(dir string) string { return filepath.Join(dir, manifestFile) }
func inputPath(dir string) string    { return filepath.Join(dir, inputFile) }
func snapshotPath(dir string) string { return filepath.Join(dir, snapshotFile) }
func resultPath(dir string) string   { return filepath.Join(dir, resultFile) }
func tracePath(dir string) string    { return filepath.Join(dir, traceFile) }

// writeJSONAtomic persists v as indented JSON at path with the same
// crash-safety contract as checkpoint.Write: encode into a sibling temp
// file, fsync, rename over path, fsync the directory. A crash leaves path
// absent, holding the previous version, or holding the new one — never torn.
func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encode %s: %w", path, err)
	}
	data = append(data, '\n')
	return writeBytesAtomic(path, data)
}

// writeBytesAtomic is the raw-bytes form of writeJSONAtomic, shared with
// pre-encoded artifacts like the per-attempt trace capture.
func writeBytesAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close() // the write error is the one to report
		os.Remove(tmp)
		return fmt.Errorf("jobs: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close() // the sync error is the one to report
		os.Remove(tmp)
		return fmt.Errorf("jobs: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: %w", err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs dir so the entries just created or renamed in it
// survive a power cut. It is best-effort: some filesystems refuse a
// directory fsync, and a rename is already atomic without it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() // best-effort directory durability
		d.Close()
	}
}

// readManifest loads and decodes a job manifest.
func readManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("jobs: manifest %s: %w", path, err)
	}
	if m.ID == "" || m.State == "" {
		return nil, fmt.Errorf("jobs: manifest %s: missing id or state", path)
	}
	return &m, nil
}

// Admission and lookup sentinels; the HTTP layer maps them to status codes.
var (
	// ErrDraining: the server is shutting down and admits no new jobs (503).
	ErrDraining = errors.New("jobs: server is draining, not accepting jobs")
	// ErrQueueFull: the bounded backlog is at capacity (429).
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrTooLarge: the dataset cannot fit the per-job memory budget (413).
	ErrTooLarge = errors.New("jobs: dataset exceeds the per-job budget")
	// ErrLowDisk: the data volume is below the configured free-space floor,
	// so a new job could not durably store its input and checkpoints (503 with
	// Retry-After — the condition is transient once jobs are deleted or the
	// disk is grown).
	ErrLowDisk = errors.New("jobs: insufficient free disk space")
	// ErrNotFound: no job with that id (404).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrNoResult: the job exists but has no result document yet (409).
	ErrNoResult = errors.New("jobs: result not available")
	// ErrNoTrace: the job exists but no attempt has captured a span trace
	// yet (409) — the trace is written when an attempt finishes.
	ErrNoTrace = errors.New("jobs: trace not available")
	// ErrBadInput: the request itself is invalid — bad name, bad option,
	// unknown column (400).
	ErrBadInput = errors.New("jobs: invalid request")
)

// errRunnerPanic marks a panic recovered in the job runner itself (outside
// the discovery engine's own isolation) — injected faults land here.
var errRunnerPanic = errors.New("jobs: runner panic")

// runnerPanic carries the recovered value and stack so the manifest can
// record them like a worker panic.
type runnerPanic struct {
	val   any
	stack []byte
}

func (p *runnerPanic) Error() string {
	return fmt.Sprintf("runner panic: %v", p.val)
}

func (p *runnerPanic) Unwrap() error { return errRunnerPanic }

// validName reports whether a client-supplied job name is safe to embed in
// paths and fault-point names: 1–64 chars of [A-Za-z0-9._-], not starting
// with a dot.
func validName(name string) bool {
	if name == "" || len(name) > 64 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

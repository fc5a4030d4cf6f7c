package jobs

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	ocd "ocd"
	"ocd/internal/obs"
)

// StatusDoc is the JSON status of one job, served by GET /jobs/{id} and the
// catalog. Volatile observability fields (progress, retry countdown) ride
// alongside the durable manifest fields.
type StatusDoc struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	State       State  `json:"state"`
	Attempts    int    `json:"attempts,omitempty"`
	MaxAttempts int    `json:"max_attempts,omitempty"`
	// NextRetryMS counts down to the next attempt while the job waits out a
	// backoff window.
	NextRetryMS    int64        `json:"next_retry_ms,omitempty"`
	Interrupted    bool         `json:"interrupted,omitempty"`
	Error          string       `json:"error,omitempty"`
	ErrorKind      string       `json:"error_kind,omitempty"`
	Stack          string       `json:"stack,omitempty"`
	TruncateReason string       `json:"truncate_reason,omitempty"`
	ResultReady    bool         `json:"result_ready"`
	Progress       *ProgressDoc `json:"progress,omitempty"`
	CreatedAt      time.Time    `json:"created_at"`
	UpdatedAt      time.Time    `json:"updated_at"`
}

// ProgressDoc is the JSON form of the engine's live Progress sample.
type ProgressDoc struct {
	Level          int     `json:"level"`
	FrontierSize   int     `json:"frontier_size"`
	Done           int64   `json:"done"`
	Checks         int64   `json:"checks"`
	Candidates     int64   `json:"candidates"`
	ChecksPerSec   float64 `json:"checks_per_sec"`
	ElapsedMS      int64   `json:"elapsed_ms"`
	PriorElapsedMS int64   `json:"prior_elapsed_ms,omitempty"`
	// ETAMS is the estimated time to finish in milliseconds; -1 when there
	// is not enough signal yet.
	ETAMS int64 `json:"eta_ms"`
	Final bool  `json:"final,omitempty"`
}

func progressDoc(p obs.Progress) *ProgressDoc {
	eta := int64(-1)
	if p.ETA >= 0 {
		eta = p.ETA.Milliseconds()
	}
	return &ProgressDoc{
		Level:          p.Level,
		FrontierSize:   p.FrontierSize,
		Done:           p.Done,
		Checks:         p.Checks,
		Candidates:     p.Candidates,
		ChecksPerSec:   p.ChecksPerSec,
		ElapsedMS:      p.Elapsed.Milliseconds(),
		PriorElapsedMS: p.PriorElapsed.Milliseconds(),
		ETAMS:          eta,
		Final:          p.Final,
	}
}

// ResultDoc is the durable result document (result.json): the run's
// ocd.ResultDoc between the job's id and its attempt count, both volatile
// like the fields ocd.ResultDoc marks so. The differential harness
// (internal/differential) drops them before it compares results.
type ResultDoc struct {
	ID string `json:"id"`
	ocd.ResultDoc
	Attempts int `json:"attempts"`
}

// writeResult renders and atomically persists the result document.
func (m *Manager) writeResult(j *Job, out attemptOutcome) error {
	j.mu.Lock()
	doc := &ResultDoc{ID: j.id, Attempts: j.man.Attempts}
	expand := j.man.Options.ExpandLimit
	j.mu.Unlock()
	doc.ResultDoc = ocd.NewResultDoc(out.tbl, out.res, expand)
	return writeJSONAtomic(resultPath(j.dir), doc)
}

// Status returns the status document of one job.
func (m *Manager) Status(id string) (StatusDoc, error) {
	j, err := m.get(id)
	if err != nil {
		return StatusDoc{}, err
	}
	return m.statusOf(j), nil
}

func (m *Manager) statusOf(j *Job) StatusDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	doc := StatusDoc{
		ID:             j.man.ID,
		Name:           j.man.Name,
		State:          j.man.State,
		Attempts:       j.man.Attempts,
		MaxAttempts:    m.cfg.MaxAttempts,
		Interrupted:    j.man.Interrupted,
		Error:          j.man.Error,
		ErrorKind:      j.man.ErrorKind,
		Stack:          j.man.Stack,
		TruncateReason: j.man.TruncateReason,
		ResultReady:    j.resultReady,
		CreatedAt:      j.man.CreatedAt,
		UpdatedAt:      j.man.UpdatedAt,
	}
	if !j.nextRetry.IsZero() {
		if ms := time.Until(j.nextRetry).Milliseconds(); ms > 0 {
			doc.NextRetryMS = ms
		}
	}
	if j.hasProg && j.man.State == StateRunning {
		doc.Progress = progressDoc(j.prog)
	}
	return doc
}

// List returns every job's status, oldest first (ties broken by id) — a
// deterministic catalog order independent of map iteration.
func (m *Manager) List() []StatusDoc {
	m.mu.Lock()
	all := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		all = append(all, j) // lint:allow mapdeterminism — docs is sorted by (CreatedAt, ID) below
	}
	m.mu.Unlock()
	docs := make([]StatusDoc, 0, len(all))
	for _, j := range all {
		docs = append(docs, m.statusOf(j))
	}
	sort.Slice(docs, func(a, b int) bool {
		if !docs[a].CreatedAt.Equal(docs[b].CreatedAt) {
			return docs[a].CreatedAt.Before(docs[b].CreatedAt)
		}
		return docs[a].ID < docs[b].ID
	})
	return docs
}

// HealthDoc is the GET /healthz body.
type HealthDoc struct {
	Status   string `json:"status"` // "ok", "low-disk" or "draining"
	Active   int    `json:"active"`
	Queued   int    `json:"queued"`
	Jobs     int    `json:"jobs"`
	Draining bool   `json:"draining,omitempty"`
	// FreeBytes is the space available on the volume holding the data dir
	// (which also hosts every job's input, checkpoint and result); -1 when
	// the platform cannot report it.
	FreeBytes int64 `json:"free_bytes"`
	// MinFreeBytes echoes the admission floor; LowDisk is set when FreeBytes
	// is known and below it (new submissions are then refused with 503).
	MinFreeBytes int64 `json:"min_free_bytes,omitempty"`
	LowDisk      bool  `json:"low_disk,omitempty"`
}

// Health reports the manager's liveness snapshot.
func (m *Manager) Health() HealthDoc {
	free := diskFree(m.cfg.Dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	h := HealthDoc{
		Status:       "ok",
		Active:       m.active,
		Queued:       len(m.queue) + m.pendingRetries,
		Jobs:         len(m.jobs),
		Draining:     m.draining,
		FreeBytes:    free,
		MinFreeBytes: m.cfg.MinFreeBytes,
	}
	if m.cfg.MinFreeBytes > 0 && free >= 0 && free < m.cfg.MinFreeBytes {
		h.LowDisk = true
		h.Status = "low-disk"
	}
	if m.draining {
		h.Status = "draining"
	}
	return h
}

// Result returns the raw result document bytes of a finished job.
// ErrNoResult (with the job's state in the message) when none exists yet.
func (m *Manager) Result(id string) ([]byte, error) {
	j, err := m.get(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	ready := j.resultReady
	state := j.man.State
	j.mu.Unlock()
	if !ready {
		return nil, fmt.Errorf("%w: job is %s", ErrNoResult, state)
	}
	return os.ReadFile(resultPath(j.dir))
}

// SimplifyDoc is the POST /jobs/{id}/simplify response: the §1 ORDER BY
// rewrite evaluated against a job's dataset.
type SimplifyDoc struct {
	OrderBy    []string `json:"order_by"`
	Simplified []string `json:"simplified"`
}

// SimplifyOrderBy loads the job's dataset (with its submitted load options)
// and returns the shortest ORDER BY prefix implying the full ordering.
// Unknown columns surface as ErrBadInput.
func (m *Manager) SimplifyOrderBy(ctx context.Context, id string, columns []string) (SimplifyDoc, error) {
	j, err := m.get(id)
	if err != nil {
		return SimplifyDoc{}, err
	}
	if len(columns) == 0 {
		return SimplifyDoc{}, fmt.Errorf("%w: no columns given", ErrBadInput)
	}
	j.mu.Lock()
	opts := j.man.Options
	name := j.man.Name
	j.mu.Unlock()
	f, err := os.Open(inputPath(j.dir))
	if err != nil {
		return SimplifyDoc{}, err
	}
	tbl, err := ocd.LoadCSV(f, name, loadOptions(ctx, opts)...)
	f.Close() // read-only file, the load error dominates
	if err != nil {
		return SimplifyDoc{}, err
	}
	simplified, err := tbl.SimplifyOrderBy(columns...)
	if err != nil {
		// The only failure here is an unknown column — a client error.
		return SimplifyDoc{}, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return SimplifyDoc{OrderBy: columns, Simplified: simplified}, nil
}

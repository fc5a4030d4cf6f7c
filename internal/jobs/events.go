package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sync"
)

// SSE event fan-out. Each job owns one eventHub: a bounded ring of
// recent events with strictly monotone sequence IDs, broadcast to any
// number of GET /jobs/{id}/events streams. The hub is deliberately
// lossy at the tail — progress samples are snapshots, not a ledger — but
// the terminal `done` event is sticky: it is retained past ring
// eviction and re-issued (with a fresh sequence number) to clients that
// reconnect after it fired, so no subscriber can miss the end of a job.
//
// Sequence IDs survive server restarts without persistence: a client
// reconnecting with `Last-Event-ID: n` bumps the hub's counter to n
// first (resync), so everything it subsequently receives is numbered
// above what it already saw. Strict monotonicity per client is the
// contract TestObservability (internal/differential) verifies across a
// mid-stream server kill.

// eventRingSize bounds the per-job replay buffer. At the default
// engine report cadence this is minutes of progress history, far beyond
// any realistic reconnect window.
const eventRingSize = 512

// Event is one SSE event: a sequence ID, an event type ("progress",
// "state", "done") and a JSON payload.
type Event struct {
	Seq  int64
	Type string
	Data []byte
}

// stateEvent is the payload of a "state" event.
type stateEvent struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Attempts int    `json:"attempts,omitempty"`
}

// doneEvent is the payload of the terminal "done" event. ResultSHA256
// lets a streaming client verify, without a second fetch, that the
// result it downloads is the one its stream announced.
type doneEvent struct {
	ID           string `json:"id"`
	State        State  `json:"state"`
	ResultReady  bool   `json:"result_ready"`
	ResultSHA256 string `json:"result_sha256,omitempty"`
}

type eventHub struct {
	mu     sync.Mutex
	seq    int64
	ring   []Event       // at most eventRingSize, oldest first
	done   []byte        // sticky terminal payload; non-nil once closed
	notify chan struct{} // closed and replaced on every publish
}

func newEventHub() *eventHub {
	return &eventHub{notify: make(chan struct{})}
}

// publish appends one event and wakes every waiting subscriber. After
// the hub is closed further publishes are dropped (the done event is
// final by contract).
func (h *eventHub) publish(typ string, data []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done != nil {
		return
	}
	h.append(typ, data)
}

// publishDone appends the terminal event and closes the hub. Idempotent:
// only the first terminal payload wins.
func (h *eventHub) publishDone(data []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done != nil {
		return
	}
	h.done = data
	h.append("done", data)
}

// append assumes h.mu is held.
func (h *eventHub) append(typ string, data []byte) {
	h.seq++
	h.ring = append(h.ring, Event{Seq: h.seq, Type: typ, Data: data})
	if len(h.ring) > eventRingSize {
		h.ring = h.ring[len(h.ring)-eventRingSize:]
	}
	close(h.notify)
	h.notify = make(chan struct{})
}

// resync prepares the hub for a subscriber that claims to have seen
// sequence IDs up to lastID (its Last-Event-ID). IDs are not persisted,
// so after a server restart the counter restarts at zero; bumping it to
// lastID keeps every later event strictly above what the client saw. If
// the job already finished and its done event is numbered at or below
// lastID — fired before the client's horizon, or renumbered away by a
// restart — the done event is re-issued above it so the reconnecting
// client still observes the terminal edge.
func (h *eventHub) resync(lastID int64) {
	if lastID <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if lastID > h.seq {
		h.seq = lastID
	}
	if h.done != nil {
		last := h.ring[len(h.ring)-1] // closed hub always has its done event buffered
		if last.Type != "done" || last.Seq <= lastID {
			h.append("done", h.done)
		}
	}
}

// next returns the buffered events with Seq > after, whether the hub is
// closed, and the channel that signals the next publish. The wait
// channel is captured under the same lock as the scan, so a publish
// between the scan and a subsequent select cannot be lost.
func (h *eventHub) next(after int64) (events []Event, closed bool, wait <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.ring {
		if h.ring[i].Seq > after {
			events = append(events, h.ring[i:]...)
			break
		}
	}
	return events, h.done != nil, h.notify
}

// hub returns the job's event hub, creating it on first use.
func (j *Job) hub() *eventHub {
	j.eventsOnce.Do(func() { j.events = newEventHub() })
	return j.events
}

// publishState emits a "state" event for man's current state.
func (j *Job) publishState(man *Manifest) {
	data, err := json.Marshal(stateEvent{ID: man.ID, State: man.State, Attempts: man.Attempts})
	if err != nil {
		return // the payload is built from plain fields; cannot fail
	}
	j.hub().publish("state", data)
}

// publishProgress emits a "progress" event carrying a ProgressDoc.
func (j *Job) publishProgress(doc *ProgressDoc) {
	data, err := json.Marshal(doc)
	if err != nil {
		return
	}
	j.hub().publish("progress", data)
}

// publishDone emits the sticky terminal event. state is usually the
// manifest state but may be "deleted" for a job removed mid-run. The
// result hash binds the stream to the exact bytes GET /jobs/{id}/result
// serves, which is how TestObservability (internal/differential) proves
// a reconnected stream and the polled API describe the same result.
func (j *Job) publishDone(state State, resultReady bool) {
	ev := doneEvent{ID: j.id, State: state, ResultReady: resultReady}
	if resultReady {
		if raw, err := os.ReadFile(resultPath(j.dir)); err == nil {
			sum := sha256.Sum256(raw)
			ev.ResultSHA256 = hex.EncodeToString(sum[:])
		}
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	j.hub().publishDone(data)
}

// StateDeleted is the pseudo-state reported by the done event of a job
// removed by DELETE while it ran; it never appears in a manifest.
const StateDeleted State = "deleted"

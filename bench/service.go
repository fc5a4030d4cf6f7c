package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ocd"
	"ocd/internal/jobs"
	"ocd/internal/obs"
)

// service is an in-process job server reached over loopback HTTP with
// keep-alive connections, in its default configuration.
type service struct {
	dir    string
	mgr    *jobs.Manager
	api    *jobs.Server
	http   *http.Server
	base   string
	client *http.Client
	stop   context.CancelFunc
	served chan error

	// What the clients saw, checked against the server's own counters.
	completed, refused atomic.Int64
}

var errRefused = errors.New("job refused")

func startService(dir string) (*service, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	mgr, err := jobs.Open(jobs.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// The service owns the manager's goroutines; close stops them.
	ctx, stop := context.WithCancel(context.Background())
	mgr.Start(ctx)
	s := &service{
		dir:    dir,
		mgr:    mgr,
		api:    jobs.NewServer(mgr),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}},
		stop:   stop,
		served: make(chan error, 1),
	}
	s.http = &http.Server{Handler: s.api}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close shuts the server down, waits for every goroutine it started and
// removes its data directory.
func (s *service) close() error {
	s.api.Close() // ends open event streams so Shutdown need not wait for them
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.stop()
	s.mgr.Wait()
	s.client.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// jobRun is one closed-loop service op: POST /jobs, the job's event
// stream until it closes after "done", then GET …/result. DELETE follows
// outside the op's latency.
type jobRun struct {
	id                                  string
	lane                                int // the client that ran it
	start, submitted, running, finished time.Time
	resulted, deleting, deleted         time.Time
	stateEvents, progressEvents         int
	trace                               []byte // GET …/trace, traced runs only
	// From the result document, which is not kept: a run of many jobs
	// must not grow the benchmark's own memory.
	outcome            outcome
	checkpoints        int
	evictions, reloads int64
}

func (r *jobRun) latency() time.Duration { return r.resulted.Sub(r.start) }

// do sends one request and returns the whole body of a response with the
// wanted status.
func (s *service) do(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		if method == http.MethodPost && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
			s.refused.Add(1)
			return nil, fmt.Errorf("%s %s: %w (%d)", method, path, errRefused, resp.StatusCode)
		}
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// doneEvent is the payload of the stream's terminal event.
type doneEvent struct {
	State        jobs.State `json:"state"`
	ResultSHA256 string     `json:"result_sha256"`
}

// job runs one op and checks that the stream's done event names the
// result bytes served afterwards. With a non-nil span the op's phases
// are recorded under it.
func (s *service) job(ctx context.Context, name string, csv []byte, span *ocd.Span) (*jobRun, error) {
	r := &jobRun{start: time.Now()}
	sp := span.StartChild("jobs.submit")
	body, err := s.do(ctx, http.MethodPost, "/jobs?name="+name, csv, http.StatusAccepted)
	sp.End()
	if err != nil {
		return nil, err
	}
	var st jobs.StatusDoc
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("submit reply: %w", err)
	}
	r.id, r.submitted = st.ID, time.Now()

	sp = span.StartChild("jobs.events")
	done, err := s.follow(ctx, r)
	sp.End()
	if err != nil {
		return nil, err
	}
	if done.State != jobs.StateCompleted {
		return nil, fmt.Errorf("job %s ended %s", r.id, done.State)
	}

	sp = span.StartChild("jobs.result")
	raw, err := s.do(ctx, http.MethodGet, "/jobs/"+r.id+"/result", nil, http.StatusOK)
	r.resulted = time.Now()
	sp.End()
	if err != nil {
		return nil, err
	}
	s.completed.Add(1)
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != done.ResultSHA256 {
		return nil, fmt.Errorf("job %s: result body does not hash to the done event's result_sha256", r.id)
	}
	var doc jobs.ResultDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("job %s result: %w", r.id, err)
	}
	// The spill counts are read by their JSON names alone, so the
	// benchmark still builds, and reads 0, once the spill layer is gone.
	var spilled struct {
		Evictions int64 `json:"spill_evictions"`
		Reloads   int64 `json:"spill_reloads"`
	}
	if err := json.Unmarshal(raw, &spilled); err != nil {
		return nil, fmt.Errorf("job %s result: %w", r.id, err)
	}
	r.outcome, r.checkpoints = outcomeOfDoc(&doc), doc.Checkpoints
	r.evictions, r.reloads = spilled.Evictions, spilled.Reloads
	if span != nil {
		sp = span.StartChild("obs.trace")
		r.trace, err = s.do(ctx, http.MethodGet, "/jobs/"+r.id+"/trace", nil, http.StatusOK)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// follow reads the job's server-sent events until the server closes the
// stream after the terminal "done" event.
func (s *service) follow(ctx context.Context, r *jobRun) (doneEvent, error) {
	var done doneEvent
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/jobs/"+r.id+"/events", nil)
	if err != nil {
		return done, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return done, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return done, fmt.Errorf("events %s: status %d", r.id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var typ, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if err := r.event(typ, data, &done); err != nil {
				return done, err
			}
			typ, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		return done, fmt.Errorf("events %s: %w", r.id, err)
	}
	if r.finished.IsZero() {
		return done, fmt.Errorf("events %s: stream closed before done", r.id)
	}
	return done, nil
}

func (r *jobRun) event(typ, data string, done *doneEvent) error {
	now := time.Now()
	switch typ {
	case "progress":
		r.progressEvents++
	case "state":
		r.stateEvents++
		var st struct {
			State jobs.State `json:"state"`
		}
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return fmt.Errorf("state event: %w", err)
		}
		if st.State == jobs.StateRunning && r.running.IsZero() {
			r.running = now
		}
	case "done":
		if err := json.Unmarshal([]byte(data), done); err != nil {
			return fmt.Errorf("done event: %w", err)
		}
		r.finished = now
		if r.running.IsZero() {
			r.running = now
		}
	}
	return nil
}

func (s *service) remove(ctx context.Context, r *jobRun) error {
	r.deleting = time.Now()
	_, err := s.do(ctx, http.MethodDelete, "/jobs/"+r.id, nil, http.StatusNoContent)
	r.deleted = time.Now()
	return err
}

// checkCounters compares what the clients saw with the server's own
// jobs.completed and jobs.rejected counters.
func (s *service) checkCounters(ctx context.Context) error {
	raw, err := s.do(ctx, http.MethodGet, "/metrics?format=json", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if got, want := snap.Counters["jobs.completed"], s.completed.Load(); got != want {
		return fmt.Errorf("server counted %d completed jobs, clients %d", got, want)
	}
	if got, want := snap.Counters["jobs.rejected"], s.refused.Load(); got != want {
		return fmt.Errorf("server counted %d rejected jobs, clients %d", got, want)
	}
	return nil
}

// serviceOp runs, verifies and deletes the job of op.
func (e *env) serviceOp(ctx context.Context, op int64, span *ocd.Span) (*jobRun, error) {
	csv, err := permutedCSV(e.rel, e.cfg.seed, op)
	if err != nil {
		return nil, err
	}
	span.SetAttr("op", op)
	r, err := e.svc.job(ctx, e.rel.Name, csv, span)
	if err != nil {
		return nil, err
	}
	sp := span.StartChild("jobs.delete")
	err = e.svc.remove(ctx, r)
	sp.End()
	if r.outcome != e.want {
		err = errors.Join(fmt.Errorf("job %s: result %+v, want %+v", r.id, r.outcome, e.want), err)
	}
	return r, err
}

// loopResult is what a closed loop measured. Only traced loops keep
// their jobs: a run of many jobs must not grow the benchmark's memory.
type loopResult struct {
	latency  []float64 // seconds per completed op
	cycle    []float64 // seconds the client spent on it, CSV and DELETE included
	runs     []*jobRun
	failures []error
}

// closedLoop runs clients callers, each sending its next job only after
// the previous one finished, until window has passed; each sends at
// least one. Op numbers come
// from next, so the seed fixes which permutations run. A non-nil span
// records every op under it, one lane per client.
func (e *env) closedLoop(ctx context.Context, clients int, window time.Duration, next *atomic.Int64, span *ocd.Span) loopResult {
	deadline := time.Now().Add(window)
	each := make([]loopResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &each[c]
			for first := true; ctx.Err() == nil && (first || time.Now().Before(deadline)); first = false {
				var sp *ocd.Span
				if span != nil {
					sp = span.StartChildLane("op", c+1)
				}
				t0 := time.Now()
				r, err := e.serviceOp(ctx, next.Add(1), sp)
				took := time.Since(t0)
				sp.End()
				if err != nil {
					res.failures = append(res.failures, err)
					continue
				}
				res.latency = append(res.latency, r.latency().Seconds())
				res.cycle = append(res.cycle, took.Seconds())
				if span != nil {
					r.lane = c + 1
					res.runs = append(res.runs, r)
				}
			}
		}(c)
	}
	wg.Wait()
	var all loopResult
	for _, res := range each {
		all.latency = append(all.latency, res.latency...)
		all.cycle = append(all.cycle, res.cycle...)
		all.runs = append(all.runs, res.runs...)
		all.failures = append(all.failures, res.failures...)
	}
	return all
}

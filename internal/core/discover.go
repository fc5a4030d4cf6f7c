package core

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ocd/internal/attr"
	"ocd/internal/checkpoint"
	"ocd/internal/faultinject"
	"ocd/internal/order"
	"ocd/internal/relation"
)

// Note for readers coming from the paper: observability hooks (the d.ro
// calls below) are structurally inert — nil when Options carries no
// registry/tracer/reporter — and never change the traversal.

// Discover runs OCDDISCOVER over the relation instance and returns the
// minimal OCDs, the ODs found during the traversal, and the reduction-phase
// dependencies (constant columns and order-equivalence classes). It is the
// error-free wrapper around DiscoverContext: worker panics still degrade to
// a partial Result (marked TruncateWorkerPanic), only the error is dropped.
// A relation too wide to discover over gives an empty Result.
func Discover(r *relation.Relation, opts Options) *Result {
	res, _ := DiscoverContext(context.Background(), r, opts) // lint:allow errdrop — error-free compat wrapper; Stats.Reason carries the cause
	return res
}

// DiscoverContext runs OCDDISCOVER under a context. Cancellation is
// cooperative but fast: a watcher goroutine arms an atomic stop flag that
// the level workers, the reduction phase and the sort loops deep inside
// internal/order poll, so a cancel lands in milliseconds even mid-sort on a
// wide level — no time.Now() or channel operations on the hot path.
//
// The returned Result is never nil and always well-formed: every dependency
// in it was fully validated before the stop landed. The error is non-nil
// when the caller's context ended (ctx.Err()) or a worker panicked (a
// *PanicError, possibly wrapped in a joined error); in both cases the
// partial Result is still returned, mirroring the paper's
// partial-results-under-threshold reporting (Table 6). A relation wider
// than 65,535 columns fails at once with a *WidthError and an empty Result.
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) (res *Result, err error) {
	if r.NumCols() > checkpoint.MaxWidth {
		return &Result{RelationName: r.Name}, &WidthError{Columns: r.NumCols()}
	}
	d := newDiscoverer(r, opts)
	// Last-resort isolation: a panic outside the level workers' recover
	// (a reduction check, re-raised by parallel; merging; a checker bug on
	// the caller's goroutine) still converts to a partial result plus an
	// error instead of killing the process.
	defer func() {
		if v := recover(); v != nil {
			res = d.res
			res.truncate(TruncateWorkerPanic)
			err = errors.Join(err, &PanicError{Value: v, Stack: debug.Stack()})
		}
	}()
	return d.run(ctx)
}

type discoverer struct {
	r   *relation.Relation
	chk *order.Checker
	// handles[w] is level worker w's view of chk, with its share of the
	// rank-vector cache.
	handles []*order.Handle
	// outs[w] collects worker w's output of the current level.
	outs     []workerOut
	opts     Options
	workers  int
	deadline time.Time // zero when no timeout

	universe []attr.ID // columns under consideration (pre-reduction)
	reduced  []attr.ID // columns surviving reduction (or restored from a snapshot)

	// res accumulates the (possibly partial) output; kept on the
	// discoverer so the boundary recover in DiscoverContext can return it.
	res *Result

	// barrier is the latest consistent cut of the traversal (see
	// checkpoint.go); snapshots are only ever taken from it.
	barrier barrier
	// checksBase is the snapshot's check counter on a resumed run, added to
	// the live checker counter so crash + resume totals equal a fresh run.
	checksBase int64
	// start anchors this run's Elapsed; priorElapsed carries the original
	// run's cumulative elapsed time restored from a snapshot.
	start        time.Time
	priorElapsed time.Duration
	// ro is the run's observability state; nil when metrics, tracing and
	// progress reporting are all disabled (every hook no-ops on nil).
	ro *runObs
	// fp caches the dataset fingerprint (one digest pass per run).
	fp *checkpoint.Fingerprint

	// generated counts candidates produced so far; workers stop early when
	// it crosses MaxCandidates, bounding memory even within one level of a
	// quasi-constant blow-up. Workers add their children once per chunk.
	generated atomic.Int64

	// stopReason holds the first TruncateReason requested by the watcher,
	// a panicking worker, or a budget check; zero while running. Workers
	// poll it between candidates — one atomic load, nothing else.
	stopReason atomic.Int32
	// hardStop aborts work mid-check: it is shared with the checker, whose
	// rank-derivation and scan loops poll it. Only context cancellation
	// and worker panics set it; a soft Timeout lets the current checks
	// finish so reduction output stays complete (the documented contract:
	// timeout stops the traversal, cancellation aborts everything).
	hardStop atomic.Bool
}

func newDiscoverer(r *relation.Relation, opts Options) *discoverer {
	cacheSize := opts.IndexCacheSize
	if cacheSize == 0 {
		cacheSize = defaultIndexCacheSize
	}
	w := opts.workers()
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	universe := opts.Columns
	if universe == nil {
		universe = r.Attrs()
	}
	d := &discoverer{
		r:        r,
		chk:      order.NewChecker(r, cacheSize),
		opts:     opts,
		workers:  w,
		universe: universe,
		res:      &Result{RelationName: r.Name},
	}
	for i := 0; i < w; i++ {
		d.handles = append(d.handles, d.chk.NewHandle(cacheShare(cacheSize, w, i)))
	}
	d.outs = make([]workerOut, w)
	d.chk.SetStopFlag(&d.hardStop)
	d.chk.SetObs(opts.Metrics)
	d.ro = newRunObs(&opts)
	if opts.Timeout > 0 {
		d.deadline = time.Now().Add(opts.Timeout)
	}
	return d
}

// cacheShare is worker w's share of a rank-vector cache bound of total
// vectors split across workers; a non-positive total disables caching.
func cacheShare(total, workers, w int) int {
	if total <= 0 {
		return 0
	}
	n := total / workers
	if w < total%workers {
		n++
	}
	return n
}

// expired is the deterministic deadline check used at level boundaries; the
// per-candidate hot path uses the atomic stopReason flag instead.
func (d *discoverer) expired() bool {
	return !d.deadline.IsZero() && time.Now().After(d.deadline)
}

func (d *discoverer) overBudget() bool {
	return d.opts.MaxCandidates > 0 && d.generated.Load() > d.opts.MaxCandidates
}

// reason returns the stop reason requested so far (TruncateNone = keep
// going). One atomic load; safe for the per-candidate hot path.
func (d *discoverer) reason() TruncateReason {
	return TruncateReason(d.stopReason.Load())
}

// requestStop records the first stop reason; hard stops additionally arm
// the checker-level abort flag so long rank derivations and scans bail
// mid-way.
func (d *discoverer) requestStop(reason TruncateReason, hard bool) {
	d.stopReason.CompareAndSwap(0, int32(reason))
	if hard {
		d.hardStop.Store(true)
	}
}

// watch is the context watcher goroutine: it converts ctx cancellation and
// the soft timeout timer into stop flags. It exits when stop closes (normal
// return) and signals done so run can prove no goroutine outlives it.
func (d *discoverer) watch(ctx context.Context, timerC <-chan time.Time, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-ctx.Done():
			reason := TruncateCancelled
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				reason = TruncateTimeout
			}
			d.requestStop(reason, true)
			return
		case <-timerC:
			d.requestStop(TruncateTimeout, false)
			timerC = nil // keep watching ctx for a later hard cancel
		case <-stop:
			return
		}
	}
}

// overMemoryBudget implements the soft memory budget at a level boundary as
// a degradation ladder: over budget → release every worker's rank-vector
// cache and force a GC (rung 1) → later misses recompute from column codes
// in one O(rows + domain) pass each (rung 2) → truncate (rung 3) when the
// heap is still over budget after the release.
func (d *discoverer) overMemoryBudget() bool {
	if d.opts.MaxMemoryBytes <= 0 {
		return false
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc <= uint64(d.opts.MaxMemoryBytes) {
		return false
	}
	d.chk.ReleaseMemory()
	d.res.Stats.MemoryReleases++
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc > uint64(d.opts.MaxMemoryBytes)
}

// workerOut accumulates one worker's emissions for a level, in buffers
// the worker keeps from level to level.
type workerOut struct {
	ocds []OCD
	ods  []OD
	next level
	// lefts (rights) locate next's rows from through to-1, the left
	// (right) children of each valid parent (X, Y) with |Y| ≥ 2 (|X| ≥ 2);
	// dup[i] marks a duplicate row i.
	lefts, rights []span
	dup           []bool
	// x and y hold the candidate being checked; used and free are scratch
	// for its attributes and the free ones (Algorithm 3, line 2).
	x, y attr.List
	used attr.Set
	free []uint16
	// current is the index of the candidate being processed, -1 before
	// the first, so a recovered panic can name it.
	current int
	// prunes counts the level's candidates the worker found invalid
	// (Theorem 3.7 prunes their subtrees); summed into Stats.Prunes at the
	// barrier.
	prunes int
	// err is the worker's recovered panic, if any.
	err error
	// stopped reports that the worker bailed before finishing its range.
	stopped bool
}

type span struct{ from, to int }

func (d *discoverer) run(ctx context.Context) (*Result, error) {
	d.start = time.Now()
	res := d.res

	// A resumed run must fail fast on a foreign snapshot, before any
	// traversal side effects (watcher, reduction, checkpoint writes).
	if d.opts.Resume != nil {
		if err := d.verifyResume(d.opts.Resume); err != nil {
			res.Stats.Elapsed = time.Since(d.start)
			return res, err
		}
	}
	d.ro.runStart(d.start, 0)

	// Arm the cancellation watcher only when there is something to watch;
	// plain Discover calls with no timeout pay nothing.
	var timerC <-chan time.Time
	if d.opts.Timeout > 0 {
		timer := time.NewTimer(d.opts.Timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	if ctx.Done() != nil || timerC != nil {
		watcherStop := make(chan struct{})
		watcherDone := make(chan struct{})
		go d.watch(ctx, timerC, watcherStop, watcherDone)
		// Join the watcher before returning so callers observe zero
		// leftover goroutines (the hygiene tests pin this).
		defer func() { close(watcherStop); <-watcherDone }()
	}
	// A context that is already dead stops the run synchronously instead of
	// racing the watcher goroutine: no reduction work, no snapshot.
	if ctxErr := ctx.Err(); ctxErr != nil {
		reason := TruncateCancelled
		if errors.Is(ctxErr, context.DeadlineExceeded) {
			reason = TruncateTimeout
		}
		d.requestStop(reason, true)
	}

	// lv is the level being processed; the next one is built in spare, and
	// the two swap at each barrier, so their buffers serve every level.
	var lv, spare level
	if d.opts.Resume != nil {
		// ---- Resume: rebuild state from the verified snapshot ----
		lv = d.restoreFromSnapshot(d.opts.Resume, res)
	} else {
		// ---- Column reduction (Section 4.1) ----
		if d.opts.DisableColumnReduction {
			d.reduced = append(d.reduced, d.universe...)
		} else {
			span := d.ro.phaseSpan("reduction")
			red := d.columnsReduction()
			res.Constants = red.constants
			res.EquivClasses = red.classes
			d.reduced = red.reduced
			span.SetAttr("constants", int64(len(red.constants)))
			span.SetAttr("equiv_classes", int64(len(red.classes)))
			span.SetAttr("reduced", int64(len(red.reduced)))
			span.SetAttr("checks", d.chk.Checks())
			span.End()
		}

		// ---- Initial candidates: all unordered single-attribute pairs ----
		// On a relation with reversed twins (relation.WithReversedTwins),
		// X starts with an original column x and Y with a later column or
		// the twin of one, so no candidate is the mirror or the global flip
		// of another. Without twins, Twin is the identity and every pair
		// stays.
		lv.Reset(2)
		for i, x := range d.reduced {
			if d.r.Twin(x) < x {
				continue
			}
			for _, y := range d.reduced[i+1:] {
				if t := d.r.Twin(y); t < y && t <= x {
					continue
				}
				lv.AppendRight([]uint16{uint16(x)}, 1, uint16(y))
			}
		}
		res.Stats.Candidates = int64(lv.Len())
		d.generated.Store(int64(lv.Len()))
	}
	// The initial frontier is itself a consistent cut — a run killed during
	// its first level resumes from here rather than re-running reduction.
	// Except when a hard stop already landed: reduction checks may have been
	// aborted mid-sort then, leaving degraded reduction output that must not
	// become durable, so the barrier stays invalid and nothing is snapshotted.
	if d.reason() == TruncateNone || d.opts.Resume != nil {
		d.noteBarrier(&lv, res)
	}

	// ---- Main BFS loop (Algorithm 1, lines 5–14) ----
	var errs []error
	for lv.Len() > 0 {
		if d.opts.MaxLevel > 0 && lv.K() > d.opts.MaxLevel {
			res.truncate(TruncateMaxLevel)
			break
		}
		if r := d.reason(); r != TruncateNone {
			res.truncate(r)
			break
		}
		if d.expired() {
			res.truncate(TruncateTimeout)
			break
		}
		if d.overMemoryBudget() {
			res.truncate(TruncateMemoryBudget)
			break
		}
		faultinject.Point("core.level.start")
		d.ro.levelStart(d, res, lv.K(), lv.Len())
		complete, lerr := d.processLevel(&lv, d.reduced, res, &spare)
		res.Stats.Levels++
		res.Stats.Candidates += int64(spare.Len())
		d.ro.levelEnd(d, res, spare.Len())
		if lerr != nil {
			errs = append(errs, lerr)
			res.truncate(TruncateWorkerPanic)
			break
		}
		if d.opts.MaxCandidates > 0 && res.Stats.Candidates > d.opts.MaxCandidates {
			res.truncate(TruncateMaxCandidates)
			break
		}
		// An incomplete level means some worker bailed mid-range (or a stop
		// aborted a check mid-sort, silently suppressing output): its output
		// is partial, so the run must stop and report truncation rather than
		// traverse an incomplete frontier. With no stop reason and no panic,
		// the only remaining cause is the candidate budget — whose deduped
		// counter above can stay under the cap even though workers already
		// dropped candidates.
		if !complete {
			if r := d.reason(); r != TruncateNone {
				res.truncate(r)
			} else {
				res.truncate(TruncateMaxCandidates)
			}
			break
		}
		lv, spare = spare, lv
		// Only a fully completed level advances the durable barrier; the
		// final writeCheckpoint below persists the previous barrier
		// otherwise, and resume re-runs the interrupted level from scratch.
		d.noteBarrier(&lv, res)
		if lv.Len() > 0 {
			d.writeCheckpoint(res)
		}
	}
	// A stop that landed during the final level (workers bailed early, so
	// the tree looks exhausted) must still mark the run partial.
	if r := d.reason(); r != TruncateNone && !res.Stats.Truncated {
		res.truncate(r)
	}
	// One snapshot covers every exit: on truncation it persists the last
	// completed barrier; on a full run it persists the empty final frontier,
	// from which a resume re-emits the complete result without any checks.
	d.writeCheckpoint(res)

	res.Stats.Checks = d.checksBase + d.chk.Checks()
	res.Stats.Elapsed = time.Since(d.start)
	sortResult(res)
	d.ro.runEnd(d, res)

	err := errors.Join(errs...)
	if ctxErr := ctx.Err(); ctxErr != nil && err == nil {
		err = ctxErr
	}
	return res, err
}

// processLevel checks every candidate of lv, in parallel when d.workers > 1,
// and builds the deduplicated next level in next. It returns whether every
// worker processed its full range (the level is *complete* — a
// precondition for advancing the checkpoint barrier), and any worker panics
// (joined). A panicking worker never breaks the level barrier: its recover
// runs before wg.Done, the remaining workers drain normally, and their
// completed output is still merged.
//
// Workers claim consecutive chunks of the level, so siblings — which share
// their sides' prefixes — mostly meet the same worker's cache. The merged
// next level lists each chunk's output in chunk order: the generation
// order of a single worker, whatever the worker count.
func (d *discoverer) processLevel(lv *level, reduced []attr.ID, res *Result, next *level) (bool, error) {
	size := max(1, min(maxChunk, lv.Len()/(8*d.workers)))
	chunks := make([]chunkOut, (lv.Len()+size-1)/size)
	var cursor atomic.Int64
	// The previous level's outputs were copied out; reuse their buffers.
	outs := d.outs
	for i := range outs {
		o := &outs[i]
		o.ocds, o.ods = o.ocds[:0], o.ods[:0]
		o.next.Reset(lv.K() + 1)
		o.lefts, o.rights, o.dup = o.lefts[:0], o.rights[:0], o.dup[:0]
		o.current, o.prunes, o.err, o.stopped = -1, 0, nil, false
	}
	d.parallel(func(w int) {
		sp, t0 := d.ro.workerStart(w)
		out := &outs[w]
		d.runWorker(w, lv, size, &cursor, chunks, reduced, out)
		d.handles[w].Flush()
		out.dup = append(out.dup, make([]bool, out.next.Len())...)
		d.ro.workerEnd(sp, t0, out)
	})
	// A child (X·a, Y·b) has two parents, (X, Y·b) and (X·a, Y), and both
	// emit it when both are valid and neither side's OD holds. No other
	// child has two: a mirror pair, or over reversed twins a global flip,
	// is never generated, since X starts with the first attribute of its
	// level-2 root. So the right parent's copy is dropped whenever the
	// left parent emitted the child.
	dups := make([]int, d.workers)
	if idx := leftIndex(outs); idx != nil {
		d.parallel(func(w int) { dups[w] = markDuplicates(&outs[w], idx) })
	}

	var errs []error
	total := 0
	complete := true
	for i := range outs {
		total += outs[i].next.Len() - dups[i]
		res.Stats.Prunes += int64(outs[i].prunes)
		res.OCDs = append(res.OCDs, outs[i].ocds...)
		res.ODs = append(res.ODs, outs[i].ods...)
		if outs[i].err != nil {
			errs = append(errs, outs[i].err)
		}
		if outs[i].stopped {
			complete = false
		}
	}
	next.Reset(lv.K() + 1)
	next.Grow(total)
	for _, c := range chunks {
		out := &outs[c.w]
		for k := c.from; k < c.to; {
			if out.dup[k] {
				k++
				continue
			}
			run := k + 1
			for run < c.to && !out.dup[run] {
				run++
			}
			next.AppendRows(&out.next.Rows, k, run)
			k = run
		}
	}
	// A stop request that landed after the last per-candidate poll can still
	// have aborted a check mid-sort (conservatively reported invalid), so a
	// pending reason also disqualifies the level even if no worker noticed.
	if d.reason() != TruncateNone {
		complete = false
	}
	return complete, errors.Join(errs...)
}

// maxChunk bounds the candidates a worker claims at once; smaller levels
// use chunks of an eighth of a worker's share, so load still balances.
const maxChunk = 64

// chunkOut locates one chunk's next-level candidates: rows from through
// to-1 of outs[w].next.
type chunkOut struct {
	w, from, to int
}

// parallel runs fn(0), …, fn(d.workers-1) on that many goroutines and
// waits for them; a single worker runs on the caller's goroutine. A panic
// in fn is re-raised on the caller's goroutine, where DiscoverContext's
// boundary recover turns it into a partial result.
func (d *discoverer) parallel(fn func(w int)) {
	if d.workers == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	panics := make([]any, d.workers)
	for w := 0; w < d.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { panics[w] = recover() }()
			fn(w)
		}(w)
	}
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v) // lint:allow panic — re-raised for the boundary recover in DiscoverContext
		}
	}
}

// leftIndex maps the grandparent of every left child the workers recorded
// to the set of last(Y) over those children; nil when there is none.
func leftIndex(outs []workerOut) map[string]attr.Set {
	var idx map[string]attr.Set
	var key []byte
	for i := range outs {
		next := &outs[i].next
		for _, r := range outs[i].lefts {
			if idx == nil {
				idx = make(map[string]attr.Set)
			}
			key = next.grandparent(key[:0], r.from)
			s := idx[string(key)]
			s.Add(attr.ID(next.Last(r.from)))
			idx[string(key)] = s
		}
	}
	return idx
}

// markDuplicates looks each right parent of out up in idx once, by its
// children's grandparent, marks each child (X·a, Y·b) whose b is in the
// set (its left parent emitted it too), and returns how many it marked.
func markDuplicates(out *workerOut, idx map[string]attr.Set) int {
	n := 0
	var key []byte
	next := &out.next
	for _, r := range out.rights {
		key = next.grandparent(key[:0], r.from)
		bs, ok := idx[string(key)]
		if !ok {
			continue
		}
		for k := r.from; k < r.to; k++ {
			if bs.Has(attr.ID(next.Last(k))) {
				out.dup[k] = true
				n++
			}
		}
	}
	return n
}

// runWorker isolates one worker's traversal: a panic anywhere under it
// (candidate processing, the checker, its cache) converts into a
// *PanicError naming the candidate, requests a hard stop so sibling workers
// bail quickly, and leaves the worker's completed output intact.
func (d *discoverer) runWorker(w int, lv *level, size int, cursor *atomic.Int64, chunks []chunkOut, reduced []attr.ID, out *workerOut) {
	defer func() {
		if v := recover(); v != nil {
			pe := &PanicError{Value: v, Stack: debug.Stack()}
			if out.current >= 0 {
				pe.Candidate = lv.pair(out.current)
			}
			out.err = pe
			out.stopped = true
			d.requestStop(TruncateWorkerPanic, true)
		}
	}()
	d.processChunks(w, lv, size, cursor, chunks, reduced, out)
}

// processChunks claims chunks of size candidates from cursor until the
// level is exhausted or the worker stops.
func (d *discoverer) processChunks(w int, lv *level, size int, cursor *atomic.Int64, chunks []chunkOut, reduced []attr.ID, out *workerOut) {
	for {
		from := int(cursor.Add(int64(size))) - size
		if from >= lv.Len() || !d.processChunk(w, lv, from, min(from+size, lv.Len()), &chunks[from/size], reduced, out) {
			return
		}
	}
}

// processChunk checks candidates from through to-1 of lv and records in c
// where their children lie in out.next; it reports false when the worker
// stopped early. What other goroutines read — c, the Checker's check
// count, the generated count and the progress counters — it updates once,
// when the chunk ends, also when it stops or panics, and then counts only
// the candidates it finished.
func (d *discoverer) processChunk(w int, lv *level, from, to int, c *chunkOut, reduced []attr.ID, out *workerOut) bool {
	h := d.handles[w]
	start := out.next.Len()
	end, i := start, from
	defer func() {
		*c = chunkOut{w: w, from: start, to: end}
		h.Flush()
		d.generated.Add(int64(end - start))
		d.ro.chunkDone(d, i-from)
	}()
	for ; i < to; i++ {
		if d.reason() != TruncateNone || d.overBudget() {
			out.stopped = true
			return false
		}
		out.current = i
		faultinject.Point("core.worker.candidate")
		row, s := lv.Row(i)
		d.processCandidate(h, row, s, reduced, out)
		end = out.next.Len()
	}
	return true
}

// processCandidate implements the per-candidate work of Algorithm 1 line 8
// plus generateNextLevel (Algorithm 3) for the pair row with |X| = s.
func (d *discoverer) processCandidate(h *order.Handle, row []uint16, s int, reduced []attr.ID, out *workerOut) {
	x := decode(out.x[:0], row[:s])
	y := decode(out.y[:0], row[s:])
	out.x, out.y = x, y
	// Single check of Theorem 4.1: X ~ Y iff the OD XY → YX holds.
	t0 := d.ro.checkStart()
	ok := h.CheckOCD(x, y)
	d.ro.checkDone(t0)
	if !ok {
		// Invalid candidate: Theorem 3.7 prunes the whole subtree. (A
		// hard-stopped check also lands here: conservatively invalid, so a
		// partially checked candidate is never emitted.)
		out.prunes++
		return
	}
	// The result owns its lists; x and y are reused for the next candidate.
	xy := decode(make(attr.List, 0, len(row)), row)
	ocd := OCD{X: xy[:s:s], Y: xy[s:]}
	out.ocds = append(out.ocds, ocd)

	// free = U' \ (set(X) ∪ set(Y)) — Algorithm 3, line 2 — less the
	// reversed twins of used columns: a column never meets its own twin.
	for _, a := range xy {
		out.used.Add(a)
	}
	free := out.free[:0]
	for _, a := range reduced {
		if !out.used.Has(a) && !out.used.Has(d.r.Twin(a)) {
			free = append(free, uint16(a))
		}
	}
	for _, a := range xy {
		out.used.Remove(a)
	}
	out.free = free

	// Left side: extend X only when the OD X → Y does not hold; when it
	// holds, XA ~ Y is derivable (X → Y gives XA → Y by Reflexivity +
	// Transitivity, and an OD implies the OCD), so the subtree is
	// redundant and the OD itself is emitted instead.
	next := &out.next
	t0 = d.ro.checkStart()
	odXY := h.CheckOD(x, y)
	d.ro.checkDone(t0)
	if odXY {
		out.ods = append(out.ods, OD{X: ocd.X, Y: ocd.Y})
	} else if !d.hardStop.Load() {
		from := next.Len()
		for _, a := range free {
			next.AppendLeft(row, s, a)
		}
		if len(y) >= 2 && len(free) > 0 {
			out.lefts = append(out.lefts, span{from, next.Len()})
		}
	}

	// Right side, symmetric.
	t0 = d.ro.checkStart()
	odYX := h.CheckOD(y, x)
	d.ro.checkDone(t0)
	if odYX {
		out.ods = append(out.ods, OD{X: ocd.Y, Y: ocd.X})
	} else if !d.hardStop.Load() {
		from := next.Len()
		for _, a := range free {
			next.AppendRight(row, s, a)
		}
		if len(x) >= 2 && len(free) > 0 {
			out.rights = append(out.rights, span{from, next.Len()})
		}
	}
}

// sortResult orders all output slices canonically so runs are reproducible
// regardless of worker interleaving.
func sortResult(res *Result) {
	sort.Slice(res.OCDs, func(i, j int) bool {
		a, b := res.OCDs[i], res.OCDs[j]
		if c := a.X.Compare(b.X); c != 0 {
			return c < 0
		}
		return a.Y.Compare(b.Y) < 0
	})
	sort.Slice(res.ODs, func(i, j int) bool {
		a, b := res.ODs[i], res.ODs[j]
		if c := a.X.Compare(b.X); c != 0 {
			return c < 0
		}
		return a.Y.Compare(b.Y) < 0
	})
	sort.Slice(res.Constants, func(i, j int) bool { return res.Constants[i] < res.Constants[j] })
}

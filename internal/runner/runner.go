// Package runner is the run-orchestration subsystem: the single path every
// simulation takes, whether it comes from the public cosmos API, the
// experiments harness or the cosmos-bench campaign driver.
//
// The orchestrator provides, around a deterministic simulator:
//
//   - a bounded worker pool (Options.Workers) so arbitrarily wide campaign
//     fan-out never oversubscribes the machine;
//   - shared walks: RunAll runs the cells that differ only in their
//     secure-memory side in groups over one decoded stream and one
//     on-chip walk each (sim.RunGroup), at most 2×Workers systems alive;
//   - singleflight deduplication keyed by a canonical content hash of the
//     Spec (workload, design, config, scale, seed): two concurrent requests
//     for the same cell execute one simulation and share its Results;
//   - in-memory memoisation of completed runs (what experiments.Lab used to
//     carry) plus an optional persistent Store, so a killed campaign resumes
//     executing only the missing cells;
//   - context cancellation plumbed into the simulation loop itself
//     (sim.System.RunContext), so SIGINT and timeouts land mid-run within a
//     bounded number of steps;
//   - panic recovery in workers, converted to typed *PanicError values
//     instead of tearing down the whole campaign;
//   - per-run queue-wait and execution-time accounting, exposed through
//     Stats, telemetry counters and the one run callback, Lifecycle, which
//     sees queued → running → done and exactly one PhaseDone per request.
//
// Determinism contract: identical Specs yield bit-identical Results
// regardless of worker count, arrival order, or whether the result was
// executed, memoised, deduplicated or restored from disk.
package runner

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"cosmos/internal/sim"
	"cosmos/internal/telemetry"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

// PanicError is a worker panic converted to a value: the campaign keeps
// draining, the failing cell reports what blew up and where.
type PanicError struct {
	Label string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: panic in run %s: %v", e.Label, e.Value)
}

// Source says where a completed run's Results came from.
type Source int

const (
	// SourceExecuted: this request ran the simulation.
	SourceExecuted Source = iota
	// SourceMemoised: served from the in-memory result cache.
	SourceMemoised
	// SourceRestored: loaded from the persistent Store.
	SourceRestored
	// SourceDeduplicated: waited on an identical in-flight run.
	SourceDeduplicated
)

func (s Source) String() string {
	switch s {
	case SourceExecuted:
		return "executed"
	case SourceMemoised:
		return "memoised"
	case SourceRestored:
		return "restored"
	case SourceDeduplicated:
		return "deduplicated"
	}
	return "unknown"
}

// Phase is one stage of a run request's lifecycle, reported through the
// Lifecycle hook so an observability plane can maintain a live run table.
type Phase int

const (
	// PhaseQueued: the request became the leader for its key and entered
	// the store-lookup / worker-slot pipeline.
	PhaseQueued Phase = iota
	// PhaseRunning: a worker slot was acquired and the simulation is about
	// to execute.
	PhaseRunning
	// PhaseDone: the request completed (any Source, or with an error).
	PhaseDone
)

func (p Phase) String() string {
	switch p {
	case PhaseQueued:
		return "queued"
	case PhaseRunning:
		return "running"
	case PhaseDone:
		return "done"
	}
	return "unknown"
}

// Transition is one lifecycle phase change of a run request. Source,
// QueueWait, ExecTime and Err are meaningful at PhaseDone; QueueWait is also
// set at PhaseRunning (the wait that just ended).
type Transition struct {
	Key       string
	Label     string
	Phase     Phase
	Source    Source
	QueueWait time.Duration
	ExecTime  time.Duration
	// Perf is an executed run's wall-time attribution at PhaseDone (decode
	// / step / store / report); nil unless the orchestrator has Phases.
	Perf *telemetry.PhaseBreakdown
	Err  error
}

// Stats is a snapshot of the orchestrator's run accounting.
type Stats struct {
	Executed     uint64 // simulations actually run
	Memoised     uint64 // served from the in-memory cache
	Restored     uint64 // served from the persistent store
	Deduplicated uint64 // coalesced onto an identical in-flight run
	Failed       uint64 // requests that returned an error
	// QueueWait / ExecTime accumulate over executed runs.
	QueueWait time.Duration
	ExecTime  time.Duration
}

// Options configures an Orchestrator.
type Options struct {
	// Workers bounds the worker slots (default: runtime.NumCPU()): each
	// run holds one per goroutine that times its systems, and one per
	// membersPerSlot systems it keeps alive (see RunAll).
	Workers int
	// Store, when non-nil, persists every executed run and is consulted
	// before executing.
	Store *Store
}

// Executor delegates the execution of a leader run request to an external
// fabric — the coord package's lease queue is the canonical implementation.
// Execute is called once per cache-missing key (after the store lookup and
// singleflight coalescing have already happened) and must return the
// deterministic Results of the spec, persisting them itself if durability
// is wanted: the orchestrator skips its own Store.Put for delegated runs so
// the fabric controls the write order (persist, then acknowledge).
//
// started, when invoked (at most once, from any goroutine), marks the
// moment real work began — the orchestrator turns it into the PhaseRunning
// lifecycle transition and splits queue-wait from execution time around it.
type Executor interface {
	Execute(ctx context.Context, key, label string, spec Spec, started func()) (sim.Results, error)
}

// Orchestrator runs simulations. Safe for concurrent use.
type Orchestrator struct {
	store *Store
	sem   chan struct{}

	// Executor, when non-nil, replaces local simulation for every leader
	// request: instead of taking a worker-pool slot and calling the
	// simulator, the orchestrator hands the spec to the executor and waits.
	// Store lookups, memoisation, singleflight dedup, lifecycle transitions
	// and stats accounting all still happen here, so campaign code cannot
	// tell a delegated run from a local one.
	Executor Executor

	// Instrument, when non-nil, is invoked for every simulation actually
	// executed (not for memoised/restored/deduplicated results), after the
	// System is built and before it runs; label is the run's filename-safe
	// display label. The returned cleanup, if non-nil, runs after the
	// simulation finishes. It may be called concurrently.
	Instrument func(label string, s *sim.System) func()

	// Lifecycle, when non-nil, receives a Transition at every phase change
	// of every run request: queued → running → done for executed leaders,
	// a bare done for memoised/restored/deduplicated results. Every request
	// ends in exactly one PhaseDone, failures included (Err set). It may be
	// called concurrently; nil costs one branch per transition.
	Lifecycle func(Transition)

	// Phases, when non-nil, accumulates campaign-level wall-time
	// attribution: every executed simulation runs the attributed loop
	// (decode/step/report, see sim.System.AttachPhases) and store I/O is
	// timed, all folded into this shared accumulator. Each executed run's
	// own breakdown additionally rides on its PhaseDone Transition. Nil
	// keeps runs on the untimed loop.
	Phases *telemetry.Phases

	workers int
	// admit queues the goroutines that wait for worker slots (acquire).
	admit sync.Mutex

	mu       sync.Mutex
	inflight map[string]*call
	memo     map[string]sim.Results
	stats    Stats
}

// call is one in-flight execution that followers can wait on.
type call struct {
	done chan struct{}
	res  sim.Results
	err  error
}

// New creates an orchestrator.
func New(opts Options) *Orchestrator {
	if opts.Workers < 1 {
		opts.Workers = runtime.NumCPU()
	}
	return &Orchestrator{
		store:    opts.Store,
		sem:      make(chan struct{}, opts.Workers),
		workers:  opts.Workers,
		inflight: make(map[string]*call),
		memo:     make(map[string]sim.Results),
	}
}

// Store returns the persistent store the orchestrator writes to (nil when
// running memory-only).
func (o *Orchestrator) Store() *Store { return o.store }

// Workers returns the worker-pool capacity (concurrent simulations).
func (o *Orchestrator) Workers() int { return o.workers }

func (o *Orchestrator) transition(t Transition) {
	if o.Lifecycle != nil {
		o.Lifecycle(t)
	}
}

// done ends a request: a failure counts in Stats.Failed before the one
// PhaseDone transition reports it.
func (o *Orchestrator) done(t Transition) {
	if t.Err != nil {
		o.mu.Lock()
		o.stats.Failed++
		o.mu.Unlock()
	}
	t.Phase = PhaseDone
	o.transition(t)
}

// Stats returns a snapshot of the run accounting.
func (o *Orchestrator) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// RegisterMetrics exposes the orchestrator's accounting as telemetry
// counters under scope: runs_{executed,memoised,restored,deduplicated,
// failed} and the accumulated queue_wait_us / exec_time_us, plus the result
// reuse outcomes under runner.store.* (persistent-store hits, misses and
// corrupt-record recomputes, and in-memory memo hits).
func (o *Orchestrator) RegisterMetrics(scope *telemetry.Scope) {
	s := scope.Scope("runner")
	get := func(f func(st Stats) uint64) func() uint64 {
		return func() uint64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			return f(o.stats)
		}
	}
	s.CounterFunc("runs_executed", get(func(st Stats) uint64 { return st.Executed }))
	s.CounterFunc("runs_memoised", get(func(st Stats) uint64 { return st.Memoised }))
	s.CounterFunc("runs_restored", get(func(st Stats) uint64 { return st.Restored }))
	s.CounterFunc("runs_deduplicated", get(func(st Stats) uint64 { return st.Deduplicated }))
	s.CounterFunc("runs_failed", get(func(st Stats) uint64 { return st.Failed }))
	s.CounterFunc("queue_wait_us", get(func(st Stats) uint64 { return uint64(st.QueueWait.Microseconds()) }))
	s.CounterFunc("exec_time_us", get(func(st Stats) uint64 { return uint64(st.ExecTime.Microseconds()) }))

	sc := s.Scope("store")
	sc.CounterFunc("memo_hits", get(func(st Stats) uint64 { return st.Memoised }))
	if o.store != nil {
		sc.CounterFunc("hits", func() uint64 { h, _, _ := o.store.Counters(); return h })
		sc.CounterFunc("misses", func() uint64 { _, m, _ := o.store.Counters(); return m })
		sc.CounterFunc("corrupt_recomputed", func() uint64 { _, _, c := o.store.Counters(); return c })
		sc.CounterFunc("retries", o.store.Retries)
	}
}

// request is one run request: its normalized spec, key and label, and
// the call it leads or follows.
type request struct {
	spec       Spec
	key, label string
	c          *call
}

func newRequest(spec Spec) *request {
	// Label must be read before normalizing — normalized() clears it (it is
	// display-only and must stay out of the hash).
	label := spec.DisplayLabel()
	spec = spec.normalized()
	return &request{spec: spec, key: spec.Key(), label: label}
}

// claim resolves r from the memo (memo set, the one PhaseDone emitted),
// joins an identical in-flight call (r.c set, leader false), or makes r
// the leader of a new call (PhaseQueued emitted).
func (o *Orchestrator) claim(r *request) (res sim.Results, memo, leader bool) {
	o.mu.Lock()
	if res, ok := o.memo[r.key]; ok {
		o.stats.Memoised++
		o.mu.Unlock()
		o.done(Transition{Key: r.key, Label: r.label, Source: SourceMemoised})
		return cloneResults(res), true, false
	}
	if c, ok := o.inflight[r.key]; ok {
		o.stats.Deduplicated++
		o.mu.Unlock()
		r.c = c
		return sim.Results{}, false, false
	}
	r.c = &call{done: make(chan struct{})}
	o.inflight[r.key] = r.c
	o.mu.Unlock()
	o.transition(Transition{Key: r.key, Label: r.label, Phase: PhaseQueued})
	return sim.Results{}, false, true
}

// follow waits for the in-flight call r joined.
func (o *Orchestrator) follow(ctx context.Context, r *request) (sim.Results, error) {
	select {
	case <-r.c.done:
		o.done(Transition{Key: r.key, Label: r.label, Source: SourceDeduplicated, Err: r.c.err})
		return r.result()
	case <-ctx.Done():
		err := fmt.Errorf("runner: run %s: %w", r.label, ctx.Err())
		o.done(Transition{Key: r.key, Label: r.label, Source: SourceDeduplicated, Err: err})
		return sim.Results{}, err
	}
}

// finish ends a leader request: its outcome is memoised on success and
// handed to its followers (res only when err is nil), and its one
// PhaseDone transition is emitted.
func (o *Orchestrator) finish(r *request, res sim.Results, t Transition, err error) {
	r.c.res, r.c.err = res, err
	o.mu.Lock()
	delete(o.inflight, r.key)
	if err == nil {
		o.memo[r.key] = res
	}
	o.mu.Unlock()
	close(r.c.done)

	t.Key, t.Label, t.Err = r.key, r.label, err
	o.done(t)
	if err != nil {
		slog.Debug("run failed", "label", r.label, "source", t.Source.String(), "err", err)
		return
	}
	slog.Debug("run finished", "label", r.label, "source", t.Source.String(),
		"queue_wait", t.QueueWait, "exec_time", t.ExecTime)
}

// result is a finished leader's outcome, as its caller receives it.
func (r *request) result() (sim.Results, error) {
	if r.c.err != nil {
		return sim.Results{}, r.c.err
	}
	return cloneResults(r.c.res), nil
}

// restore finishes a leader from the persistent store when it holds the
// key.
func (o *Orchestrator) restore(ctx context.Context, r *request) bool {
	if o.store == nil {
		return false
	}
	lookup := time.Now()
	res, ok := o.store.Get(ctx, r.key)
	if o.Phases != nil {
		o.Phases.Add(telemetry.PhaseStore, time.Since(lookup))
	}
	if !ok {
		return false
	}
	o.mu.Lock()
	o.stats.Restored++
	o.mu.Unlock()
	o.finish(r, res, Transition{Source: SourceRestored}, nil)
	return true
}

// Run executes (or recalls) the simulation the spec describes. Identical
// concurrent calls coalesce onto one execution; completed results are
// memoised in memory and, when a Store is configured, persisted so a later
// process can resume without re-simulating. On cancellation the error wraps
// ctx.Err(), so errors.Is(err, context.Canceled) works.
func (o *Orchestrator) Run(ctx context.Context, spec Spec) (sim.Results, error) {
	r := newRequest(spec)
	res, memo, leader := o.claim(r)
	switch {
	case memo:
		return res, nil
	case !leader:
		return o.follow(ctx, r)
	}
	if !o.restore(ctx, r) {
		if o.Executor != nil {
			res, t, err := o.delegate(ctx, r.key, r.label, r.spec)
			o.finish(r, res, t, err)
		} else {
			o.dispatch(ctx, [][]*request{{r}})
		}
	}
	return r.result()
}

// RunAll runs every spec and waits for all of them, returning the first
// error. This is the campaign-prewarm entry point. It resolves each spec
// from the memo, an in-flight call or the store, then groups the rest by
// walk key (Spec.walkKey) and splits each group into as few chunks of at
// most membersPerSlot×Workers specs as it can, of even sizes. Each chunk
// runs as one sim.RunGroup once it holds a worker slot per membersPerSlot
// members, so at most membersPerSlot×Workers systems are alive at once.
// Chunks run concurrently while slots allow, and every transition is
// emitted on the calling goroutine (see dispatch). With an Instrument hook
// every cell is a chunk of its own; with an Executor every spec is
// submitted concurrently and delegated on its own. Parallelism and
// grouping affect wall-clock only, never results.
func (o *Orchestrator) RunAll(ctx context.Context, specs []Spec) error {
	if o.Executor != nil {
		return o.runEach(ctx, specs)
	}
	var (
		leaders, followers []*request
		groups             [][]*request
		byWalk             = map[string]int{}
	)
	for _, sp := range specs {
		r := newRequest(sp)
		_, memo, leader := o.claim(r)
		switch {
		case memo:
			continue
		case !leader:
			followers = append(followers, r)
			continue
		}
		leaders = append(leaders, r)
		if o.restore(ctx, r) {
			continue
		}
		k := r.spec.walkKey()
		if i, ok := byWalk[k]; ok && o.Instrument == nil {
			groups[i] = append(groups[i], r)
			continue
		}
		byWalk[k] = len(groups)
		groups = append(groups, []*request{r})
	}
	var chunks [][]*request
	for _, g := range groups {
		// The fewest chunks of at most membersPerSlot×Workers members,
		// their sizes as even as can be.
		n := (len(g) + membersPerSlot*o.workers - 1) / (membersPerSlot * o.workers)
		for j := range n {
			chunks = append(chunks, g[j*len(g)/n:(j+1)*len(g)/n])
		}
	}
	o.dispatch(ctx, chunks)
	var firstErr error
	for _, r := range leaders {
		if _, err := r.result(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, r := range followers {
		if _, err := o.follow(ctx, r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// runEach submits every spec to Run concurrently (the Executor's fabric
// bounds actual parallelism) and returns the first error.
func (o *Orchestrator) runEach(ctx context.Context, specs []Spec) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, sp := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := o.Run(ctx, sp); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// membersPerSlot is how many systems of a group one worker slot holds
// alive: a chunk of k members needs ⌈k/membersPerSlot⌉ slots before it
// starts, so RunAll keeps at most membersPerSlot×Workers systems alive.
const membersPerSlot = 2

// chunk is leader requests that share a walk key, run as one group: the
// worker slots it holds, one per goroutine that times its members, and
// once simulated, each member's outcome.
type chunk struct {
	rs        []*request
	slots     int
	queueWait time.Duration
	execTime  time.Duration // each member's equal share of the group's
	res       []sim.Results
	phs       []*telemetry.Phases
	errs      []error
}

// need is the worker slots a chunk of k members must hold to start.
func need(k int) int { return (k + membersPerSlot - 1) / membersPerSlot }

// dispatch executes chunks of leader requests and finishes every request
// on the calling goroutine. A chunk starts once it holds need(k) worker
// slots, waiting for them if need be, and then takes what free slots it
// can use, up to one per member: the goroutine that runs it times the
// first member, which walks the stream, and its share of the rest, and one
// helper per further slot times the others (sim.RunGroup). The caller
// hands a chunk to a new goroutine when the next chunk can start at once,
// and otherwise runs the chunk itself, so a campaign keeps the caller
// simulating rather than parked; chunks run elsewhere hand their outcome
// back, and the caller stores and finishes them between its own. A slot a
// chunk run elsewhere frees while the caller simulates waits for the
// caller's next chunk.
func (o *Orchestrator) dispatch(ctx context.Context, chunks [][]*request) {
	queued := time.Now()
	done := make(chan *chunk, len(chunks))
	away := 0 // chunks running on other goroutines
	collect := func(c *chunk) {
		away--
		o.conclude(ctx, c)
	}
	held := false // chunks[i] already holds need(len(chunks[i])) slots
	for i, rs := range chunks {
		if !held && !o.acquire(ctx, need(len(rs)), done, collect) {
			for _, rs := range chunks[i:] {
				for _, r := range rs {
					o.finish(r, sim.Results{}, Transition{Source: SourceExecuted},
						fmt.Errorf("runner: run %s: %w", r.label, ctx.Err()))
				}
			}
			break
		}
		c := &chunk{rs: rs, slots: need(len(rs)), queueWait: time.Since(queued)}
		for _, r := range rs {
			o.transition(Transition{Key: r.key, Label: r.label, Phase: PhaseRunning, QueueWait: c.queueWait})
		}
		held = i+1 < len(chunks) && o.tryAcquire(need(len(chunks[i+1])))
		for c.slots < len(rs) && o.tryAcquire(1) {
			c.slots++
		}
		if held {
			away++
			go func() {
				o.run(ctx, c)
				done <- c
			}()
			continue
		}
		o.run(ctx, c)
		o.conclude(ctx, c)
	}
	for away > 0 {
		collect(<-done)
	}
}

// acquire takes n worker slots, concluding the chunks that come back on
// done meanwhile. It reports false, holding none, when ctx ends first.
// Takers queue on o.admit, so two of them never each hold part of what the
// other waits for.
func (o *Orchestrator) acquire(ctx context.Context, n int, done <-chan *chunk, collect func(*chunk)) bool {
	o.admit.Lock()
	defer o.admit.Unlock()
	for got := 0; got < n; {
		select {
		case o.sem <- struct{}{}:
			got++
		case c := <-done:
			collect(c)
		case <-ctx.Done():
			o.release(got)
			return false
		}
	}
	return true
}

// tryAcquire takes n worker slots if they are all free now.
func (o *Orchestrator) tryAcquire(n int) bool {
	for got := 0; got < n; got++ {
		select {
		case o.sem <- struct{}{}:
		default:
			o.release(got)
			return false
		}
	}
	return true
}

func (o *Orchestrator) release(n int) {
	for range n {
		<-o.sem
	}
}

// run simulates c and gives back its slots.
func (o *Orchestrator) run(ctx context.Context, c *chunk) {
	started := time.Now()
	c.res, c.phs, c.errs = o.simulate(ctx, c.rs, c.slots-1)
	// Each member books an equal share of the group's execution time, so
	// Stats.ExecTime still sums to the time spent simulating.
	c.execTime = time.Since(started) / time.Duration(len(c.rs))
	o.release(c.slots)
}

// conclude stores and finishes each member of a simulated chunk, in order.
func (o *Orchestrator) conclude(ctx context.Context, c *chunk) {
	for i, r := range c.rs {
		t := Transition{Source: SourceExecuted, QueueWait: c.queueWait, ExecTime: c.execTime}
		err, ph := c.errs[i], c.phs[i]
		if err == nil {
			o.mu.Lock()
			o.stats.Executed++
			o.stats.QueueWait += c.queueWait
			o.stats.ExecTime += c.execTime
			o.mu.Unlock()
			if o.store != nil {
				put := time.Now()
				if putErr := o.store.Put(ctx, r.key, r.spec, c.res[i]); putErr != nil {
					err = fmt.Errorf("runner: persist run %s: %w", r.label, putErr)
				}
				if ph != nil {
					ph.Add(telemetry.PhaseStore, time.Since(put))
				}
			}
			if ph != nil {
				b := ph.Breakdown()
				t.Perf = &b
			}
		}
		if ph != nil {
			o.Phases.Merge(ph)
		}
		o.finish(r, c.res[i], t, err)
	}
}

// delegate hands a leader request to the attached Executor and books the
// outcome exactly like a local execution: the started callback becomes the
// PhaseRunning transition and splits queue-wait (time on the fabric's queue
// before a worker leased the cell) from execution time. The executor is
// responsible for persistence — no Store.Put happens here, so the fabric's
// persist-then-acknowledge ordering is the only write path.
func (o *Orchestrator) delegate(ctx context.Context, key, label string, spec Spec) (sim.Results, Transition, error) {
	queued := time.Now()
	var (
		mu        sync.Mutex
		startedAt time.Time
	)
	started := func() {
		mu.Lock()
		startedAt = time.Now()
		wait := startedAt.Sub(queued)
		mu.Unlock()
		o.transition(Transition{Key: key, Label: label, Phase: PhaseRunning, QueueWait: wait})
	}

	res, err := o.Executor.Execute(ctx, key, label, spec, started)

	finished := time.Now()
	mu.Lock()
	queueWait := finished.Sub(queued)
	var execTime time.Duration
	if !startedAt.IsZero() {
		queueWait = startedAt.Sub(queued)
		execTime = finished.Sub(startedAt)
	}
	mu.Unlock()

	t := Transition{Source: SourceExecuted, QueueWait: queueWait, ExecTime: execTime}
	if err != nil {
		return sim.Results{}, t, err
	}
	o.mu.Lock()
	o.stats.Executed++
	o.stats.QueueWait += queueWait
	o.stats.ExecTime += execTime
	o.mu.Unlock()
	return res, t, nil
}

// simulate builds and runs a group's simulation with panic recovery: a
// spec that fails validation, or whose system panics while it is built,
// fails alone; a workload that fails to build, or a panic of the stream or
// the walk, fails every cell of the group; a panic in one member's timing
// half fails that cell alone. Panics become *PanicError values instead of
// killing the process.
func (o *Orchestrator) simulate(ctx context.Context, rs []*request, helpers int) (res []sim.Results, phs []*telemetry.Phases, errs []error) {
	res = make([]sim.Results, len(rs))
	phs = make([]*telemetry.Phases, len(rs))
	errs = make([]error, len(rs))
	var live []int
	for i, r := range rs {
		if err := r.spec.Validate(); err != nil {
			errs[i] = err
			continue
		}
		live = append(live, i)
		if o.Phases != nil {
			phs[i] = telemetry.NewPhases()
		}
	}
	if len(live) == 0 {
		return res, phs, errs
	}
	failAll := func(err func(r *request) error) {
		for _, i := range live {
			res[i], errs[i] = sim.Results{}, err(rs[i])
		}
	}
	defer func() {
		if p := recover(); p != nil {
			stack := debug.Stack()
			failAll(func(r *request) error { return &PanicError{Label: r.label, Value: p, Stack: stack} })
		}
	}()

	// Workload construction (graph building, footprint layout) counts as
	// the first member's decode: it is the cost of producing the stream.
	first := rs[live[0]].spec
	var decodeStart time.Time
	if ph := phs[live[0]]; ph != nil {
		decodeStart = time.Now()
	}
	gen, err := buildWorkload(first.Workload, workloads.Options{
		Threads:     first.Cores,
		Seed:        first.Seed,
		GraphNodes:  first.GraphNodes,
		GraphDegree: first.GraphDegree,
	})
	if ph := phs[live[0]]; ph != nil {
		ph.Add(telemetry.PhaseDecode, time.Since(decodeStart))
	}
	if err != nil {
		failAll(func(r *request) error { return fmt.Errorf("runner: build workload for %s: %w", r.label, err) })
		return res, phs, errs
	}

	// The first system built walks the stream; the others are its Members.
	var systems []*sim.System
	built := live[:0:0]
	for _, i := range live {
		var walker *sim.System
		if len(systems) > 0 {
			walker = systems[0]
		}
		s, err := buildSystem(rs[i], walker, phs[i])
		if err != nil {
			errs[i] = err
			continue
		}
		systems = append(systems, s)
		built = append(built, i)
	}
	live = built
	if len(systems) == 0 {
		trace.CloseIfCloser(gen)
		return res, phs, errs
	}
	if o.Instrument != nil && len(systems) == 1 {
		if cleanup := o.Instrument(rs[live[0]].label, systems[0]); cleanup != nil {
			defer cleanup()
		}
	}
	out, runErrs := sim.RunGroup(ctx, trace.Limit(gen, first.Accesses), first.Accesses, systems, helpers)
	for j, i := range live {
		var tp *sim.TimingPanic
		switch err := runErrs[j]; {
		case errors.As(err, &tp):
			errs[i] = &PanicError{Label: rs[i].label, Value: tp.Value, Stack: tp.Stack}
		case err != nil:
			errs[i] = fmt.Errorf("runner: run %s: %w", rs[i].label, err)
		default:
			res[i] = out[j]
		}
	}
	return res, phs, errs
}

// buildSystem builds r's system: a group's walker when walker is nil, else
// one of walker's Members. A panic while building (an unknown counter
// policy or prefetcher, say) fails r alone, as a *PanicError.
func buildSystem(r *request, walker *sim.System, ph *telemetry.Phases) (s *sim.System, err error) {
	defer func() {
		if p := recover(); p != nil {
			s, err = nil, &PanicError{Label: r.label, Value: p, Stack: debug.Stack()}
		}
	}()
	if walker == nil {
		s = sim.New(r.spec.config(), r.spec.Design)
	} else {
		s = walker.Member(r.spec.config(), r.spec.Design)
	}
	if ph != nil {
		s.AttachPhases(ph)
	}
	return s, nil
}

// buildWorkload is the stream constructor the runner builds each group's
// stream with; tests count calls through it.
var buildWorkload = workloads.Build

// cloneResults deep-copies the pointer-valued fields so callers can never
// mutate a shared memo entry through the returned value.
func cloneResults(r sim.Results) sim.Results {
	if r.DataPred != nil {
		cp := *r.DataPred
		r.DataPred = &cp
	}
	if r.CtrPred != nil {
		cp := *r.CtrPred
		r.CtrPred = &cp
	}
	return r
}

// Package runner is the run-orchestration subsystem: the single path every
// simulation takes, whether it comes from the public cosmos API, the
// experiments harness or the cosmos-bench campaign driver.
//
// The orchestrator provides, around a deterministic simulator:
//
//   - a bounded worker pool (Options.Workers) so arbitrarily wide campaign
//     fan-out never oversubscribes the machine;
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
	// Workers bounds concurrent simulations (default: runtime.NumCPU()).
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

// Run executes (or recalls) the simulation the spec describes. Identical
// concurrent calls coalesce onto one execution; completed results are
// memoised in memory and, when a Store is configured, persisted so a later
// process can resume without re-simulating. On cancellation the error wraps
// ctx.Err(), so errors.Is(err, context.Canceled) works.
func (o *Orchestrator) Run(ctx context.Context, spec Spec) (sim.Results, error) {
	// Label must be read before normalizing — normalized() clears it (it is
	// display-only and must stay out of the hash).
	label := spec.DisplayLabel()
	spec = spec.normalized()
	key := spec.Key()

	o.mu.Lock()
	if r, ok := o.memo[key]; ok {
		o.stats.Memoised++
		o.mu.Unlock()
		o.done(Transition{Key: key, Label: label, Source: SourceMemoised})
		return cloneResults(r), nil
	}
	if c, ok := o.inflight[key]; ok {
		o.stats.Deduplicated++
		o.mu.Unlock()
		select {
		case <-c.done:
			o.done(Transition{Key: key, Label: label, Source: SourceDeduplicated, Err: c.err})
			if c.err != nil {
				return sim.Results{}, c.err
			}
			return cloneResults(c.res), nil
		case <-ctx.Done():
			err := fmt.Errorf("runner: run %s: %w", label, ctx.Err())
			o.done(Transition{Key: key, Label: label, Source: SourceDeduplicated, Err: err})
			return sim.Results{}, err
		}
	}
	c := &call{done: make(chan struct{})}
	o.inflight[key] = c
	o.mu.Unlock()
	o.transition(Transition{Key: key, Label: label, Phase: PhaseQueued})

	res, t, err := o.execute(ctx, key, label, spec)
	c.res, c.err = res, err

	o.mu.Lock()
	delete(o.inflight, key)
	if err == nil {
		o.memo[key] = res
	}
	o.mu.Unlock()
	close(c.done)

	t.Key, t.Label, t.Err = key, label, err
	o.done(t)
	if err != nil {
		slog.Debug("run failed", "label", label, "source", t.Source.String(), "err", err)
		return sim.Results{}, err
	}
	slog.Debug("run finished", "label", label, "source", t.Source.String(),
		"queue_wait", t.QueueWait, "exec_time", t.ExecTime)
	return cloneResults(res), nil
}

// RunAll submits every spec concurrently (the worker pool bounds actual
// parallelism) and waits for all of them, returning the first error. This
// is the campaign-prewarm entry point: parallelism affects wall-clock only,
// never results.
func (o *Orchestrator) RunAll(ctx context.Context, specs []Spec) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, sp := range specs {
		sp := sp
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

// execute resolves one leader request: store lookup, worker-slot wait,
// simulation, store write-back — or, with an Executor attached, store
// lookup followed by delegation to the external fabric.
func (o *Orchestrator) execute(ctx context.Context, key, label string, spec Spec) (sim.Results, Transition, error) {
	if o.store != nil {
		lookup := time.Now()
		r, ok := o.store.Get(ctx, key)
		if o.Phases != nil {
			o.Phases.Add(telemetry.PhaseStore, time.Since(lookup))
		}
		if ok {
			o.mu.Lock()
			o.stats.Restored++
			o.mu.Unlock()
			return r, Transition{Source: SourceRestored}, nil
		}
	}

	if o.Executor != nil {
		return o.delegate(ctx, key, label, spec)
	}

	queued := time.Now()
	select {
	case o.sem <- struct{}{}:
	case <-ctx.Done():
		return sim.Results{}, Transition{Source: SourceExecuted}, fmt.Errorf("runner: run %s: %w", label, ctx.Err())
	}
	defer func() { <-o.sem }()
	queueWait := time.Since(queued)
	o.transition(Transition{Key: key, Label: label, Phase: PhaseRunning, QueueWait: queueWait})

	started := time.Now()
	res, ph, err := o.simulate(ctx, label, spec)
	execTime := time.Since(started)

	t := Transition{Source: SourceExecuted, QueueWait: queueWait, ExecTime: execTime}
	if err != nil {
		if ph != nil {
			o.Phases.Merge(ph)
		}
		return sim.Results{}, t, err
	}
	o.mu.Lock()
	o.stats.Executed++
	o.stats.QueueWait += queueWait
	o.stats.ExecTime += execTime
	o.mu.Unlock()

	var putErr error
	if o.store != nil {
		put := time.Now()
		putErr = o.store.Put(ctx, key, spec, res)
		if ph != nil {
			ph.Add(telemetry.PhaseStore, time.Since(put))
		}
	}
	if ph != nil {
		o.Phases.Merge(ph)
		b := ph.Breakdown()
		t.Perf = &b
	}
	if putErr != nil {
		return sim.Results{}, t, fmt.Errorf("runner: persist run %s: %w", label, putErr)
	}
	return res, t, nil
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

// simulate builds and runs one simulation with panic recovery: a panicking
// workload or model component fails this cell with a *PanicError instead of
// killing the process.
func (o *Orchestrator) simulate(ctx context.Context, label string, spec Spec) (res sim.Results, ph *telemetry.Phases, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Label: label, Value: p, Stack: debug.Stack()}
		}
	}()

	if err := spec.Validate(); err != nil {
		return sim.Results{}, nil, err
	}

	var decodeStart time.Time
	if o.Phases != nil {
		ph = telemetry.NewPhases()
		decodeStart = time.Now()
	}
	gen, err := workloads.Build(spec.Workload, workloads.Options{
		Threads:     spec.Cores,
		Seed:        spec.Seed,
		GraphNodes:  spec.GraphNodes,
		GraphDegree: spec.GraphDegree,
	})
	if ph != nil {
		// Workload construction (graph building, footprint layout) counts
		// as decode: it is the cost of producing the access stream.
		ph.Add(telemetry.PhaseDecode, time.Since(decodeStart))
	}
	if err != nil {
		return sim.Results{}, ph, fmt.Errorf("runner: build workload for %s: %w", label, err)
	}

	s := sim.New(spec.config(), spec.Design)
	if ph != nil {
		s.AttachPhases(ph)
	}
	if o.Instrument != nil {
		if cleanup := o.Instrument(label, s); cleanup != nil {
			defer cleanup()
		}
	}
	res, err = s.RunContext(ctx, trace.Limit(gen, spec.Accesses), spec.Accesses)
	if err != nil {
		return sim.Results{}, ph, fmt.Errorf("runner: run %s: %w", label, err)
	}
	return res, ph, nil
}

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

package obs

import (
	"sync"
	"time"

	"cosmos/internal/runner"
	"cosmos/internal/telemetry"
)

// RunTable is the live state of a campaign: one Cell per run-request key,
// maintained from the orchestrator's Lifecycle transitions and served as
// JSON on /runs (and, transition by transition, on /events). It is the
// answer to "what is this multi-hour cosmos-bench actually doing right
// now": which cells are waiting, which are executing on a worker, what
// finished where (executed / memo / store) and how long everything took.
type RunTable struct {
	workers int
	broker  *Broker          // optional: transitions are also published here
	now     func() time.Time // injectable for tests
	phases  *telemetry.Phases

	mu      sync.Mutex
	cells   map[string]*Cell
	order   []string // insertion order, for stable /runs output
	sources map[string]int
	execSum time.Duration // over executed cells, for the ETA estimate
	execN   int
}

// Cell is the state of one run request.
type Cell struct {
	Key    string `json:"key"`
	Label  string `json:"label"`
	Status string `json:"status"` // "queued" | "running" | "done" | "failed"
	// Source is set once done: "executed", "memoised", "restored" or
	// "deduplicated".
	Source      string `json:"source,omitempty"`
	QueueWaitMS int64  `json:"queue_wait_ms"`
	ExecMS      int64  `json:"exec_ms"`
	// StartedUnixMS / FinishedUnixMS are wall-clock unix milliseconds of
	// the first and terminal transition (0 = not reached yet).
	StartedUnixMS  int64 `json:"started_unix_ms"`
	FinishedUnixMS int64 `json:"finished_unix_ms,omitempty"`
	// RunningSinceUnixMS is when the cell acquired its worker slot (0 =
	// never ran); the ETA uses it to credit in-flight cells their elapsed
	// time.
	RunningSinceUnixMS int64 `json:"running_since_unix_ms,omitempty"`
	// Perf is the executed cell's wall-time attribution (decode / step /
	// store / report, simulated accesses/sec), set at completion.
	Perf  *telemetry.PhaseBreakdown `json:"perf,omitempty"`
	Error string                    `json:"error,omitempty"`
}

// NewRunTable creates a run table for a pool of the given worker capacity.
// broker may be nil (no /events fan-out).
func NewRunTable(workers int, broker *Broker) *RunTable {
	if workers < 1 {
		workers = 1
	}
	return &RunTable{
		workers: workers,
		broker:  broker,
		now:     time.Now,
		cells:   make(map[string]*Cell),
		sources: make(map[string]int),
	}
}

// Observe is the runner Lifecycle hook: assign it to Orchestrator.Lifecycle
// (or wrap it). Safe for concurrent use.
func (t *RunTable) Observe(tr runner.Transition) {
	nowMS := t.now().UnixMilli()

	t.mu.Lock()
	c := t.cells[tr.Key]
	if c == nil {
		c = &Cell{Key: tr.Key, Label: tr.Label, StartedUnixMS: nowMS}
		t.cells[tr.Key] = c
		t.order = append(t.order, tr.Key)
	}
	switch tr.Phase {
	case runner.PhaseQueued:
		c.Status = "queued"
	case runner.PhaseRunning:
		c.Status = "running"
		c.QueueWaitMS = tr.QueueWait.Milliseconds()
		c.RunningSinceUnixMS = nowMS
	case runner.PhaseDone:
		src := tr.Source.String()
		t.sources[src]++
		// A deduplicated follower finishing after its leader must not
		// overwrite the leader's terminal state.
		if c.Status == "done" || c.Status == "failed" {
			break
		}
		if tr.Err != nil {
			c.Status = "failed"
			c.Error = tr.Err.Error()
		} else {
			c.Status = "done"
		}
		c.Source = src
		c.QueueWaitMS = tr.QueueWait.Milliseconds()
		c.ExecMS = tr.ExecTime.Milliseconds()
		c.FinishedUnixMS = nowMS
		if tr.Perf != nil {
			perf := *tr.Perf
			c.Perf = &perf
		}
		if tr.Err == nil && tr.Source == runner.SourceExecuted {
			t.execSum += tr.ExecTime
			t.execN++
		}
	}
	snapshot := *c
	t.mu.Unlock()

	if t.broker != nil {
		t.broker.Publish("run", snapshot)
	}
}

// Snapshot is the JSON shape of /runs.
type Snapshot struct {
	Workers int `json:"workers"`
	// Occupancy: cells currently holding a worker slot / waiting for one.
	Running int `json:"running"`
	Queued  int `json:"queued"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	// Sources counts terminal transitions by origin, including
	// deduplicated followers of cells listed once below.
	Sources map[string]int `json:"sources"`
	// MeanExecMS is the mean simulation time of executed cells; ETASeconds
	// estimates the remaining wall time: queued cells cost the mean,
	// currently-running cells the mean minus their elapsed time (floored at
	// zero), summed and divided across the worker pool. -1 = no estimate
	// yet.
	MeanExecMS float64 `json:"mean_exec_ms"`
	ETASeconds float64 `json:"eta_seconds"`
	// Perf is the campaign-level wall-time attribution (AttachPhases).
	Perf  *telemetry.PhaseBreakdown `json:"perf,omitempty"`
	Cells []Cell                    `json:"cells"`
}

// Snapshot returns the current table state, cells in first-seen order.
func (t *RunTable) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{
		Workers: t.workers,
		Sources: make(map[string]int, len(t.sources)),
		Cells:   make([]Cell, 0, len(t.order)),
	}
	for k, v := range t.sources {
		s.Sources[k] = v
	}
	for _, key := range t.order {
		c := *t.cells[key]
		s.Cells = append(s.Cells, c)
		switch c.Status {
		case "running":
			s.Running++
		case "queued":
			s.Queued++
		case "done":
			s.Done++
		case "failed":
			s.Failed++
		}
	}
	s.MeanExecMS, s.ETASeconds = t.etaLocked()
	if t.phases != nil {
		b := t.phases.Breakdown()
		s.Perf = &b
	}
	return s
}

// AttachPhases includes the campaign-level wall-time attribution in every
// /runs snapshot. Call before serving.
func (t *RunTable) AttachPhases(p *telemetry.Phases) { t.phases = p }

// Progress reports terminal vs known cells and current worker occupancy.
func (t *RunTable) Progress() (done, total, running int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, key := range t.order {
		switch t.cells[key].Status {
		case "done", "failed":
			done++
		case "running":
			running++
		}
	}
	return done, len(t.order), running
}

// ETA estimates the remaining campaign wall time from the completed-cell
// execution-time mean: a queued cell still costs the full mean, but a
// currently-running cell only costs the mean minus the time it has already
// been running (floored at zero — a cell that overshoots the mean is
// treated as about to finish rather than pushing the estimate up), with the
// summed remaining work divided across the worker pool. ok is false until
// at least one cell has executed (restored and memoised cells are nearly
// free and excluded from the mean).
func (t *RunTable) ETA() (eta time.Duration, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, sec := t.etaLocked()
	if sec < 0 {
		return 0, false
	}
	return time.Duration(sec * float64(time.Second)), true
}

func (t *RunTable) etaLocked() (meanMS, etaSeconds float64) {
	if t.execN == 0 {
		return -1, -1
	}
	mean := t.execSum / time.Duration(t.execN)
	nowMS := t.now().UnixMilli()
	var remaining time.Duration
	for _, key := range t.order {
		c := t.cells[key]
		switch c.Status {
		case "queued":
			remaining += mean
		case "running":
			left := mean
			if c.RunningSinceUnixMS > 0 {
				left -= time.Duration(nowMS-c.RunningSinceUnixMS) * time.Millisecond
			}
			if left > 0 {
				remaining += left
			}
		}
	}
	eta := remaining / time.Duration(t.workers)
	return float64(mean.Milliseconds()), eta.Seconds()
}

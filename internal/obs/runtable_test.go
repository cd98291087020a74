package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cosmos/internal/runner"
	"cosmos/internal/secmem"
	"cosmos/internal/telemetry"
)

// fakeClock advances one millisecond per reading, so cell timestamps are
// deterministic and distinct.
type fakeClock struct{ ms int64 }

func (c *fakeClock) now() time.Time {
	c.ms++
	return time.UnixMilli(c.ms)
}

func newTestTable(workers int) *RunTable {
	tbl := NewRunTable(workers, nil)
	tbl.now = (&fakeClock{}).now
	return tbl
}

func TestRunTableLifecycle(t *testing.T) {
	tbl := newTestTable(2)

	tbl.Observe(runner.Transition{Key: "a", Label: "mcf_COSMOS", Phase: runner.PhaseQueued})
	tbl.Observe(runner.Transition{Key: "b", Label: "DFS_COSMOS", Phase: runner.PhaseQueued})
	s := tbl.Snapshot()
	if s.Queued != 2 || s.Running != 0 || s.Done != 0 {
		t.Fatalf("after queueing: %+v", s)
	}
	if s.ETASeconds != -1 || s.MeanExecMS != -1 {
		t.Fatalf("ETA before any execution must be -1, got %+v", s)
	}

	tbl.Observe(runner.Transition{Key: "a", Label: "mcf_COSMOS", Phase: runner.PhaseRunning, QueueWait: 5 * time.Millisecond})
	done, total, running := tbl.Progress()
	if done != 0 || total != 2 || running != 1 {
		t.Fatalf("progress = (%d,%d,%d)", done, total, running)
	}

	tbl.Observe(runner.Transition{
		Key: "a", Label: "mcf_COSMOS", Phase: runner.PhaseDone,
		Source: runner.SourceExecuted, QueueWait: 5 * time.Millisecond, ExecTime: 4 * time.Second,
	})
	s = tbl.Snapshot()
	if s.Done != 1 || s.Queued != 1 {
		t.Fatalf("after one done: %+v", s)
	}
	if s.MeanExecMS != 4000 {
		t.Fatalf("mean exec = %v", s.MeanExecMS)
	}
	// One queued cell remaining, mean 4s, two workers → 2s.
	if eta, ok := tbl.ETA(); !ok || eta != 2*time.Second {
		t.Fatalf("eta = %v ok=%v", eta, ok)
	}

	cell := s.Cells[0]
	if cell.Status != "done" || cell.Source != "executed" || cell.QueueWaitMS != 5 || cell.ExecMS != 4000 {
		t.Fatalf("cell = %+v", cell)
	}
	if cell.StartedUnixMS == 0 || cell.FinishedUnixMS == 0 || cell.FinishedUnixMS <= cell.StartedUnixMS {
		t.Fatalf("timestamps = %+v", cell)
	}
}

// setClock is a clock pinned to an explicit instant (unlike fakeClock it
// does not advance per reading), for tests that reason about elapsed time.
type setClock struct{ t time.Time }

func (c *setClock) now() time.Time { return c.t }

// TestRunTableETACreditsRunningCells pins the ETA fix: a cell that has
// already been running for a while only costs the mean minus its elapsed
// time, and one that overshot the mean costs nothing — previously every
// running cell was billed the full mean and the estimate jumped at each
// worker handoff.
func TestRunTableETACreditsRunningCells(t *testing.T) {
	clock := &setClock{t: time.UnixMilli(1_000)}
	tbl := NewRunTable(1, nil)
	tbl.now = clock.now

	// One executed cell establishes a 10s mean.
	tbl.Observe(runner.Transition{Key: "a", Label: "a", Phase: runner.PhaseQueued})
	tbl.Observe(runner.Transition{Key: "a", Label: "a", Phase: runner.PhaseRunning})
	tbl.Observe(runner.Transition{Key: "a", Label: "a", Phase: runner.PhaseDone,
		Source: runner.SourceExecuted, ExecTime: 10 * time.Second})

	// b starts running at t=2s; c stays queued.
	clock.t = time.UnixMilli(2_000)
	tbl.Observe(runner.Transition{Key: "b", Label: "b", Phase: runner.PhaseQueued})
	tbl.Observe(runner.Transition{Key: "b", Label: "b", Phase: runner.PhaseRunning})
	tbl.Observe(runner.Transition{Key: "c", Label: "c", Phase: runner.PhaseQueued})

	// At t=6s, b has 4s elapsed: remaining = (10−4) + 10 = 16s on 1 worker.
	clock.t = time.UnixMilli(6_000)
	if eta, ok := tbl.ETA(); !ok || eta != 16*time.Second {
		t.Fatalf("eta = %v ok=%v, want 16s", eta, ok)
	}

	// At t=20s, b overshot the mean: floored at zero, only c counts.
	clock.t = time.UnixMilli(20_000)
	if eta, ok := tbl.ETA(); !ok || eta != 10*time.Second {
		t.Fatalf("eta after overshoot = %v ok=%v, want 10s", eta, ok)
	}

	snap := tbl.Snapshot()
	if snap.Cells[1].RunningSinceUnixMS != 2_000 {
		t.Fatalf("running-since = %v, want 2000", snap.Cells[1].RunningSinceUnixMS)
	}
}

// TestRunTablePerfBreakdown checks the campaign Phases attachment and the
// per-cell Perf attribution survive a snapshot round.
func TestRunTablePerfBreakdown(t *testing.T) {
	tbl := newTestTable(1)
	ph := telemetry.NewPhases()
	ph.Add(telemetry.PhaseStep, 2*time.Second)
	ph.AddAccesses(1000)
	tbl.AttachPhases(ph)

	pb := ph.Breakdown()
	tbl.Observe(runner.Transition{Key: "a", Label: "a", Phase: runner.PhaseQueued})
	tbl.Observe(runner.Transition{Key: "a", Label: "a", Phase: runner.PhaseDone,
		Source: runner.SourceExecuted, ExecTime: time.Second, Perf: &pb})

	s := tbl.Snapshot()
	if s.Perf == nil || s.Perf.StepMS != 2000 || s.Perf.Accesses != 1000 {
		t.Fatalf("snapshot perf = %+v", s.Perf)
	}
	if s.Cells[0].Perf == nil || s.Cells[0].Perf.StepMS != 2000 {
		t.Fatalf("cell perf = %+v", s.Cells[0].Perf)
	}
}

// TestRunTableRealCellPerf runs one real campaign cell through the runner
// and checks the perf attribution surface: the per-cell /runs Perf
// breakdown books the run's accesses exactly once, and the campaign Phases
// accumulator — the source of the cosmos-bench progress `rate` — agrees.
func TestRunTableRealCellPerf(t *testing.T) {
	tbl := NewRunTable(1, nil)
	o := runner.New(runner.Options{Workers: 1})
	o.Lifecycle = tbl.Observe
	o.Phases = telemetry.NewPhases()
	tbl.AttachPhases(o.Phases)
	if _, err := o.Run(context.Background(), runner.Spec{
		Workload: "mcf", Design: secmem.DesignCosmos(), Accesses: 20_000, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	s := tbl.Snapshot()
	if len(s.Cells) != 1 || s.Cells[0].Source != "executed" {
		t.Fatalf("snapshot = %+v", s)
	}
	// Exactly the run's accesses: neither dropped nor double-booked.
	if p := s.Cells[0].Perf; p == nil || p.Accesses != 20_000 || p.StepMS < 0 || p.AccessesPerSec <= 0 {
		t.Fatalf("executed cell perf = %+v, want 20000 accesses at a positive rate", p)
	}
	if acc := o.Phases.Accesses(); acc != 20_000 {
		t.Fatalf("campaign accesses = %d, want 20000", acc)
	}
}

func TestRunTableDedupFollowerKeepsLeaderState(t *testing.T) {
	tbl := newTestTable(1)
	tbl.Observe(runner.Transition{Key: "a", Label: "x", Phase: runner.PhaseQueued})
	tbl.Observe(runner.Transition{Key: "a", Label: "x", Phase: runner.PhaseDone,
		Source: runner.SourceExecuted, ExecTime: time.Second})
	// A deduplicated follower of the same key finishes after the leader: the
	// cell keeps its executed terminal state, only the source tally grows.
	tbl.Observe(runner.Transition{Key: "a", Label: "x", Phase: runner.PhaseDone,
		Source: runner.SourceDeduplicated})
	s := tbl.Snapshot()
	if len(s.Cells) != 1 || s.Cells[0].Source != "executed" {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Sources["executed"] != 1 || s.Sources["deduplicated"] != 1 {
		t.Fatalf("sources = %+v", s.Sources)
	}
}

func TestRunTableFailedCell(t *testing.T) {
	tbl := newTestTable(1)
	tbl.Observe(runner.Transition{Key: "a", Label: "x", Phase: runner.PhaseQueued})
	tbl.Observe(runner.Transition{Key: "a", Label: "x", Phase: runner.PhaseDone,
		Source: runner.SourceExecuted, Err: errTest})
	s := tbl.Snapshot()
	if s.Failed != 1 || s.Cells[0].Status != "failed" || s.Cells[0].Error != "boom" {
		t.Fatalf("snapshot = %+v", s)
	}
	// Failed executions must not pollute the ETA mean.
	if s.MeanExecMS != -1 {
		t.Fatalf("mean after failure only = %v", s.MeanExecMS)
	}
}

var errTest = errFixed("boom")

type errFixed string

func (e errFixed) Error() string { return string(e) }

// TestRunsEndpointRoundTrip drives /runs through the real handler and checks
// the JSON decodes back into the Snapshot that produced it.
func TestRunsEndpointRoundTrip(t *testing.T) {
	tbl := newTestTable(3)
	tbl.Observe(runner.Transition{Key: "k1", Label: "mcf_COSMOS", Phase: runner.PhaseQueued})
	tbl.Observe(runner.Transition{Key: "k1", Label: "mcf_COSMOS", Phase: runner.PhaseRunning, QueueWait: time.Millisecond})
	tbl.Observe(runner.Transition{Key: "k1", Label: "mcf_COSMOS", Phase: runner.PhaseDone,
		Source: runner.SourceExecuted, ExecTime: 2 * time.Second})
	tbl.Observe(runner.Transition{Key: "k2", Label: "mcf_NP", Phase: runner.PhaseDone, Source: runner.SourceRestored})
	tbl.Observe(runner.Transition{Key: "k3", Label: "DFS_COSMOS", Phase: runner.PhaseQueued})

	srv := NewServer(Config{Component: "test", Runs: tbl})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/runs", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}

	var got Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := tbl.Snapshot()
	if got.Workers != want.Workers || got.Done != want.Done || got.Queued != want.Queued {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if len(got.Cells) != 3 || got.Cells[0].Label != "mcf_COSMOS" || got.Cells[1].Source != "restored" {
		t.Fatalf("cells = %+v", got.Cells)
	}
	if got.Sources["executed"] != 1 || got.Sources["restored"] != 1 {
		t.Fatalf("sources = %+v", got.Sources)
	}
	if got.ETASeconds != want.ETASeconds {
		t.Fatalf("eta %v != %v", got.ETASeconds, want.ETASeconds)
	}
}

func TestRunsEndpointEmptyWithoutTable(t *testing.T) {
	srv := NewServer(Config{Component: "test"})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/runs", nil))
	var got Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Cells == nil || len(got.Cells) != 0 {
		t.Fatalf("want empty cell list, got %+v", got)
	}
}

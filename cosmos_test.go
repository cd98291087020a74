package cosmos

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"cosmos/internal/experiments"
	"cosmos/internal/runner"
	"cosmos/internal/secmem"
)

func TestRunBasic(t *testing.T) {
	r, err := Run(RunSpec{Workload: "DFS", Design: "COSMOS", Accesses: 50_000, GraphNodes: 50_000, GraphDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Accesses != 50_000 || r.IPC <= 0 {
		t.Fatalf("results: %+v", r)
	}
	if r.DataPred == nil || r.CtrPred == nil {
		t.Fatal("COSMOS must report predictor stats")
	}
}

func TestRunUnknownNames(t *testing.T) {
	if _, err := Run(RunSpec{Workload: "DFS", Design: "nope"}); err == nil {
		t.Fatal("unknown design must error")
	}
	if _, err := Run(RunSpec{Workload: "nope", Design: "NP"}); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestCompareSecureCostsMore(t *testing.T) {
	speedup, err := Compare("canneal", "MorphCtr", "NP", 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if speedup <= 1 {
		t.Fatalf("NP should beat MorphCtr, speedup=%v", speedup)
	}
}

func TestRegistriesNonEmpty(t *testing.T) {
	if len(Workloads()) < 15 {
		t.Fatalf("workloads: %v", Workloads())
	}
	if len(Designs()) != 8 {
		t.Fatalf("designs: %v", Designs())
	}
	if len(Experiments()) != 26 {
		t.Fatalf("experiments: %v", Experiments())
	}
}

// TestDesignsMatchRegistry pins the public design list to the internal
// registry: every listed name resolves, every registered design is listed.
func TestDesignsMatchRegistry(t *testing.T) {
	names := Designs()
	all := secmem.AllDesigns()
	if len(names) != len(all) {
		t.Fatalf("Designs lists %d names, registry has %d", len(names), len(all))
	}
	for i, d := range all {
		if names[i] != d.Name {
			t.Errorf("Designs[%d] = %s, registry has %s", i, names[i], d.Name)
		}
		resolved, err := secmem.DesignByName(names[i])
		if err != nil {
			t.Errorf("Designs lists unresolvable %q: %v", names[i], err)
		} else if resolved.Name != names[i] {
			t.Errorf("DesignByName(%q).Name = %q", names[i], resolved.Name)
		}
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, RunSpec{Workload: "mcf", Design: "NP", Accesses: 30_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunExperimentContextResume(t *testing.T) {
	dir := t.TempDir()
	// Progress may be called concurrently: the planning pass runs cells in
	// parallel.
	var executed, restored atomic.Int64
	opts := ExperimentOpts{ResultsDir: dir, Progress: func(u RunUpdate) {
		switch u.Source {
		case "executed":
			executed.Add(1)
		case "restored":
			restored.Add(1)
		}
	}}
	a, err := RunExperimentContext(context.Background(), "fig2", opts)
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() == 0 {
		t.Fatal("first campaign should execute simulations")
	}

	executed.Store(0)
	restored.Store(0)
	b, err := RunExperimentContext(context.Background(), "fig2", opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := executed.Load(); n != 0 {
		t.Fatalf("resumed campaign executed %d simulations, want 0", n)
	}
	if restored.Load() == 0 {
		t.Fatal("resumed campaign restored nothing")
	}
	if a.String() != b.String() {
		t.Fatalf("resumed table differs:\n%s\nvs\n%s", a, b)
	}
}

// TestProgressOneUpdatePerRequest holds Progress to exactly one RunUpdate
// per run request. RunExperimentContext plans, then renders: the planning
// pass requests every distinct cell once (executed cold, restored on the
// resume), and the render then requests every cell again, each time in
// the serial order and each one memoised. The counts are checked against
// a reference lab running the campaign through Experiment.Run from the
// same store, which plans the same way: its restored requests are the
// distinct cells and its memoised requests are the render's. fig17 asks
// for some cells more than once, so the two counts differ.
func TestProgressOneUpdatePerRequest(t *testing.T) {
	dir := t.TempDir()
	var (
		mu      sync.Mutex
		updates map[string]uint64
	)
	opts := ExperimentOpts{ResultsDir: dir, Workers: 1, Progress: func(u RunUpdate) {
		if u.Err != nil {
			t.Errorf("update %+v carries an error", u)
		}
		mu.Lock()
		updates[u.Source]++
		mu.Unlock()
	}}
	campaign := func() map[string]uint64 {
		updates = map[string]uint64{}
		if _, err := RunExperimentContext(context.Background(), "fig17", opts); err != nil {
			t.Fatal(err)
		}
		return updates
	}
	cold, warm := campaign(), campaign()

	st, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	lab := experiments.NewLab(experiments.Scaled(0), experiments.WithStore(st), experiments.WithWorkers(1))
	e, err := experiments.ByID("fig17")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(lab); err != nil {
		t.Fatal(err)
	}
	ref := lab.Orchestrator().Stats()
	if ref.Restored == 0 || ref.Memoised == 0 {
		t.Fatalf("reference campaign %+v lacks restored or memoised requests", ref)
	}
	cells, requests := ref.Restored, ref.Memoised
	wantCold := map[string]uint64{"executed": cells, "memoised": requests}
	wantWarm := map[string]uint64{"restored": cells, "memoised": requests}
	if !reflect.DeepEqual(cold, wantCold) || !reflect.DeepEqual(warm, wantWarm) {
		t.Fatalf("updates cold %v / warm %v, want %v / %v", cold, warm, wantCold, wantWarm)
	}
}

// TestProgressReportsFailedRequest: under a cancelled context the planning
// pass still sends every distinct cell, each request fails and reports
// exactly one update carrying context.Canceled, and the render never
// starts, so no request is memoised.
func TestProgressReportsFailedRequest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var (
		mu      sync.Mutex
		updates []RunUpdate
	)
	_, err := RunExperimentContext(ctx, "fig2", ExperimentOpts{Workers: 1, Progress: func(u RunUpdate) {
		mu.Lock()
		updates = append(updates, u)
		mu.Unlock()
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	labels := map[string]bool{}
	for _, u := range updates {
		if !errors.Is(u.Err, context.Canceled) || u.Source == "memoised" {
			t.Errorf("update %+v, want a failed request of the planning pass", u)
		}
		labels[u.Label] = true
	}
	// The same cells planned on a lab of their own: one failure each.
	lab := experiments.NewLab(experiments.Scaled(0), experiments.WithContext(ctx), experiments.WithWorkers(1))
	e, err := experiments.ByID("fig2")
	if err != nil {
		t.Fatal(err)
	}
	_ = experiments.Prewarm(lab, e)
	cells := lab.Orchestrator().Stats().Failed
	if cells < 2 || uint64(len(updates)) != cells || len(labels) != len(updates) {
		t.Fatalf("%d updates over %d labels, want one per distinct cell (%d)", len(updates), len(labels), cells)
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	tb, err := RunExperiment("tab2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb.String() == "" {
		t.Fatal("empty table")
	}
	if _, err := RunExperiment("fig99", 0); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestSecureMemoryFacade(t *testing.T) {
	m, err := NewSecureMemory(1<<16, []byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	var l Line
	copy(l[:], "through the facade")
	if err := m.Write(0x40, l); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(0x40)
	if err != nil || got != l {
		t.Fatalf("round trip failed: %v", err)
	}
	m.TamperCiphertext(0x40, func(ln *Line) { ln[0] ^= 1 })
	if _, err := m.Read(0x40); err == nil {
		t.Fatal("tampering must be detected through the facade")
	} else if errors.Is(err, nil) {
		t.Fatal("unreachable")
	}
}

func TestRunDeterminism(t *testing.T) {
	spec := RunSpec{Workload: "mcf", Design: "COSMOS", Accesses: 30_000, Seed: 7}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(spec)
	if a.Cycles != b.Cycles || a.Traffic != b.Traffic {
		t.Fatal("Run must be deterministic for equal specs")
	}
}

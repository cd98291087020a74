package runner

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/telemetry"
)

// testSpec is a fast cell (a SPEC-like kernel, no graph build).
func testSpec() Spec {
	return Spec{Workload: "mcf", Design: secmem.DesignCosmos(), Accesses: 20_000, Seed: 7}
}

func TestSpecKeyCanonical(t *testing.T) {
	a := testSpec()
	b := testSpec()
	b.Label = "custom-label" // display only: must not enter the hash
	if a.Key() != b.Key() {
		t.Fatal("label must not change the key")
	}
	c := testSpec()
	c.Cores = 4 // normalisation: 0 means 4
	if a.Key() != c.Key() {
		t.Fatal("cores 0 and 4 must share a key")
	}
	d := testSpec()
	d.Seed = 8
	if a.Key() == d.Key() {
		t.Fatal("different seeds must hash differently")
	}
	e := testSpec()
	cfg := sim.DefaultConfig()
	e.Config = &cfg
	if a.Key() == e.Key() {
		t.Fatal("a custom config must hash differently")
	}
}

func TestSpecDisplayLabel(t *testing.T) {
	sp := testSpec()
	if got := sp.DisplayLabel(); got != "mcf_COSMOS" {
		t.Fatalf("label = %q", got)
	}
	// RMCC's LFU policy is part of the design, not a tweak: plain label.
	sp.Design = secmem.DesignRMCC()
	if got := sp.DisplayLabel(); got != "mcf_RMCC" {
		t.Fatalf("RMCC label = %q", got)
	}
	// An actual override shows up.
	sp.Design = secmem.DesignCosmosDP()
	sp.Design.CtrPolicy = "SHiP"
	if got := sp.DisplayLabel(); got != "mcf_COSMOS-DP_SHiP" {
		t.Fatalf("tweaked label = %q", got)
	}
	sp.Label = "my run!"
	if got := sp.DisplayLabel(); got != "my-run-" {
		t.Fatalf("sanitised override = %q", got)
	}
}

func TestRunMemoises(t *testing.T) {
	o := New(Options{Workers: 1})
	a, err := o.Run(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Run(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Executed != 1 || st.Memoised != 1 {
		t.Fatalf("stats = %+v, want one executed + one memoised", st)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("memoised result differs from executed one")
	}
	// Memoised returns must not alias the cached predictor stats.
	if a.DataPred != nil && a.DataPred == b.DataPred {
		t.Fatal("memo returned an aliased pointer")
	}
}

func TestRunSingleflight(t *testing.T) {
	o := New(Options{Workers: 4})
	release := make(chan struct{})
	o.Instrument = func(label string, s *sim.System) func() {
		<-release // hold the leader mid-execution
		return nil
	}

	var wg sync.WaitGroup
	results := make([]sim.Results, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = o.Run(context.Background(), testSpec())
		}()
	}
	// Wait until the second request has coalesced onto the first, then let
	// the leader finish.
	deadline := time.Now().Add(5 * time.Second)
	for o.Stats().Deduplicated == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never deduplicated")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	st := o.Stats()
	if st.Executed != 1 {
		t.Fatalf("executed %d simulations, want 1", st.Executed)
	}
	if st.Deduplicated != 1 {
		t.Fatalf("deduplicated %d requests, want 1", st.Deduplicated)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("deduplicated result differs from executed one")
	}
}

func TestRunCancelled(t *testing.T) {
	o := New(Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := o.Run(ctx, testSpec())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := o.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v, want one failure", st)
	}
	// A failed run is not memoised: a fresh context re-executes it.
	if _, err := o.Run(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.Executed != 1 {
		t.Fatalf("retry after cancellation executed %d, want 1", st.Executed)
	}
}

func TestRunPanicBecomesError(t *testing.T) {
	o := New(Options{Workers: 1})
	o.Instrument = func(label string, s *sim.System) func() {
		panic("instrument blew up")
	}
	_, err := o.Run(context.Background(), testSpec())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Label != "mcf_COSMOS" || len(pe.Stack) == 0 {
		t.Fatalf("panic error incomplete: %+v", pe)
	}
	// The failed cell stays retryable.
	o.Instrument = nil
	if _, err := o.Run(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	o := New(Options{Workers: 1})
	sp := testSpec()
	sp.Workload = "no-such-workload"
	if _, err := o.Run(context.Background(), sp); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	specs := []Spec{testSpec()}
	second := testSpec()
	second.Seed = 9
	specs = append(specs, second)

	run := func(workers int) []sim.Results {
		o := New(Options{Workers: workers})
		var out []sim.Results
		for _, sp := range specs {
			r, err := o.Run(context.Background(), sp)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}
	if !reflect.DeepEqual(run(1), run(8)) {
		t.Fatal("results depend on worker count")
	}
}

func TestRegisterMetrics(t *testing.T) {
	o := New(Options{Workers: 1})
	reg := telemetry.NewRegistry()
	o.RegisterMetrics(reg.Root())
	want := []string{
		"runner.exec_time_us", "runner.queue_wait_us",
		"runner.runs_deduplicated", "runner.runs_executed",
		"runner.runs_failed", "runner.runs_memoised", "runner.runs_restored",
		"runner.store.memo_hits",
	}
	if got := reg.SortedNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("metric names = %v, want %v", got, want)
	}
	if _, err := o.Run(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}
	// One executed run must be visible through a sampler flush.
	var buf bytes.Buffer
	sp, err := telemetry.NewSampler(reg, telemetry.SamplerConfig{Interval: 1, JSONL: &buf})
	if err != nil {
		t.Fatal(err)
	}
	sp.Flush(1)
	if !strings.Contains(buf.String(), `"runner.runs_executed":1`) {
		t.Fatalf("sampled row missing executed count: %s", buf.String())
	}
}

func TestRunAllReturnsFirstError(t *testing.T) {
	o := New(Options{Workers: 2})
	bad := testSpec()
	bad.Workload = "no-such-workload"
	err := o.RunAll(context.Background(), []Spec{testSpec(), bad})
	if err == nil {
		t.Fatal("RunAll must surface the failing spec")
	}
	if st := o.Stats(); st.Executed != 1 {
		t.Fatalf("good spec should still execute, stats = %+v", st)
	}
}

func TestSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		f    func(*Spec)
		want string
	}{
		{"empty workload", func(s *Spec) { s.Workload = "" }, "empty workload"},
		{"empty design", func(s *Spec) { s.Design.Name = "" }, "empty design"},
		{"zero accesses", func(s *Spec) { s.Accesses = 0 }, "zero accesses"},
		{"negative cores", func(s *Spec) { s.Cores = -2 }, "negative core count"},
		{"bad config", func(s *Spec) {
			cfg := sim.DefaultConfig()
			cfg.MC.MemBytes = 0
			s.Config = &cfg
		}, "memory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := testSpec()
			tc.f(&sp)
			err := sp.Validate()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestMalformedSpecFailsAsError(t *testing.T) {
	o := New(Options{Workers: 1})
	sp := testSpec()
	sp.Workload = ""
	if _, err := o.Run(context.Background(), sp); err == nil {
		t.Fatal("orchestrator executed a malformed spec")
	}
}

package perf

import (
	"context"
	"testing"
)

// TestRunSuiteSmoke runs a miniature suite (E2E off — the campaign benchmark
// is exercised by cmd/cosmos-perf and CI) and checks the report shape: every
// expected metric present, correct sample counts, sane values.
func TestRunSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("suite smoke is slow")
	}
	// WarmSteps matches the zero-alloc guard's regime: a cold system still
	// materialises counter blocks for a while, and an under-warmed suite
	// would report phantom allocations.
	cfg := SuiteConfig{
		Samples:   3,
		StepOps:   5_000,
		WarmSteps: 400_000,
		DecodeOps: 5_000,
		E2E:       false,
	}
	r, err := RunSuite(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != SchemaVersion {
		t.Fatalf("schema = %q", r.Schema)
	}
	want := []string{
		"step.NP.ns_per_op", "step.NP.allocs_per_op",
		"step.MorphCtr.ns_per_op", "step.MorphCtr.allocs_per_op",
		"step.COSMOS.ns_per_op", "step.COSMOS.allocs_per_op",
		"step.COSMOS.policy=perceptron.ns_per_op", "step.COSMOS.policy=perceptron.allocs_per_op",
		"step.COSMOS.policy=mlp.ns_per_op", "step.COSMOS.policy=mlp.allocs_per_op",
		"decode.tracefile.accesses_per_sec",
	}
	if len(r.Metrics) != len(want) {
		t.Fatalf("got %d metrics, want %d: %+v", len(r.Metrics), len(want), MetricNames(r))
	}
	for _, name := range want {
		m := r.Metric(name)
		if m == nil {
			t.Fatalf("metric %s missing", name)
		}
		if len(m.Samples) != cfg.Samples {
			t.Fatalf("%s has %d samples, want %d", name, len(m.Samples), cfg.Samples)
		}
		for _, v := range m.Samples {
			if v < 0 {
				t.Fatalf("%s has negative sample %v", name, v)
			}
		}
	}
	// Steady-state Step must not allocate; the suite must agree with the
	// zero-alloc guard tests.
	for _, d := range []string{"NP", "MorphCtr", "COSMOS", "COSMOS.policy=perceptron", "COSMOS.policy=mlp"} {
		m := r.Metric("step." + d + ".allocs_per_op")
		if med := Median(m.Samples); med != 0 {
			t.Fatalf("step.%s allocates: %v allocs/op", d, med)
		}
	}
	if m := r.Metric("decode.tracefile.accesses_per_sec"); Median(m.Samples) <= 0 {
		t.Fatalf("decode throughput not positive: %v", m.Samples)
	}
}

// TestRunSuiteHandicap checks the self-test knob scales timings and rates
// the way the ratchet self-test relies on.
func TestRunSuiteHandicap(t *testing.T) {
	if got := applyHandicap(100, "ns/op", 2); got != 200 {
		t.Fatalf("ns handicap = %v, want 200", got)
	}
	if got := applyHandicap(100, "accesses/sec", 2); got != 50 {
		t.Fatalf("rate handicap = %v, want 50", got)
	}
	if got := applyHandicap(3, "allocs/op", 2); got != 3 {
		t.Fatalf("alloc handicap = %v, want unchanged 3", got)
	}
}

func TestRunSuiteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSuite(ctx, SuiteConfig{Samples: 2, StepOps: 10, WarmSteps: 0, DecodeOps: 10, E2E: false})
	if err == nil {
		t.Fatal("cancelled suite returned nil error")
	}
}

package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"cosmos/internal/memsys"
	"cosmos/internal/secmem"
	"cosmos/internal/telemetry"
	"cosmos/internal/trace"
)

// telemetryGen builds a wide uniform access stream that misses on-chip
// caches often enough to exercise the whole off-chip pipeline.
func telemetryGen() trace.Generator {
	return trace.NewUniform(memsys.Region{Base: 0, Size: 512 << 20, Elem: 1}, 20, 4, 7)
}

func TestRunEmitsIntervalTimeSeries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MC.MemBytes = 1 << 30
	s := New(cfg, secmem.DesignCosmos())

	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg.Root())

	var jsonl, csvOut strings.Builder
	sp, err := telemetry.NewSampler(reg, telemetry.SamplerConfig{
		Interval: 10_000, JSONL: &jsonl, CSV: &csvOut,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachSampler(sp)

	const accesses = 25_000
	s.Run(trace.Limit(telemetryGen(), accesses), accesses)
	if err := sp.Err(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 3 { // 10k, 20k, final partial 25k
		t.Fatalf("got %d JSONL rows, want 3", len(lines))
	}
	// Rows land on exact interval multiples, then the final partial one.
	var last map[string]any
	for i, line := range lines {
		last = nil
		if err := json.Unmarshal([]byte(line), &last); err != nil {
			t.Fatalf("unparseable JSONL row: %v\n%s", err, line)
		}
		if got, want := last["accesses"].(float64), []float64{10_000, 20_000, accesses}[i]; got != want {
			t.Errorf("row %d accesses = %v, want %v", i, got, want)
		}
	}

	// The acceptance-criteria metric set must be present: per-core cache
	// miss rates, CTR cache hit rate, both predictor headline metrics.
	for _, key := range []string{
		"core0.l1.miss_rate", "core3.l2.miss_rate", "llc.miss_rate",
		"secmem.ctr.hit_rate",
		"secmem.data_pred.accuracy", "secmem.ctr_pred.good_fraction",
		"secmem.data_pred.agent.q_coverage",
		"secmem.traffic.total", "secmem.dram.row_hit_rate",
		"sim.fetch_latency.count", "sim.avg_fetch_lat", "sim.bypass_rate",
	} {
		if _, ok := last[key]; !ok {
			t.Errorf("time-series row missing %q", key)
		}
	}

	// A busy uniform stream must actually move the core metrics.
	if v := last["core0.l1.miss_rate"].(float64); v <= 0 || v > 1 {
		t.Errorf("core0.l1.miss_rate = %v, want in (0, 1]", v)
	}
	if v := last["sim.fetch_latency.count"].(float64); v == 0 {
		t.Error("fetch latency histogram saw no off-chip accesses")
	}
	if v := last["secmem.data_pred.agent.q_coverage"].(float64); v <= 0 {
		t.Error("Q-table coverage stayed at zero despite learning")
	}

	// CSV sink: same row count, header first, parseable shape.
	csvLines := strings.Split(strings.TrimSpace(csvOut.String()), "\n")
	if len(csvLines) != 4 {
		t.Fatalf("got %d CSV lines, want header + 3 rows", len(csvLines))
	}
	if !strings.HasPrefix(csvLines[0], "interval,accesses,delta,") {
		t.Errorf("CSV header = %q", csvLines[0])
	}
}

func TestRunRecordsChromeTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MC.MemBytes = 1 << 30
	s := New(cfg, secmem.DesignCosmos())

	rec := telemetry.NewSpanRecorder(1, 64)
	s.AttachSpans(rec)
	s.Run(trace.Limit(telemetryGen(), 20_000), 20_000)

	var out strings.Builder
	if err := telemetry.WriteChromeTrace(&out, rec.TopSpans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	chains := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			chains[ev.Name] = true
		}
	}
	for _, want := range []string{"fetch", "l2+llc walk"} {
		if !chains[want] {
			t.Errorf("trace missing %q slices; saw %v", want, chains)
		}
	}
	// The data chain appears under one of its two labels.
	if !chains["dram"] && !chains["dram (speculative)"] {
		t.Errorf("trace missing data-chain slices; saw %v", chains)
	}
}

// TestTelemetryDoesNotPerturbResults pins the zero-cost claim functionally:
// an instrumented run must produce bit-identical results to a bare one.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	run := func(instrument bool) Results {
		cfg := DefaultConfig()
		cfg.MC.MemBytes = 1 << 30
		s := New(cfg, secmem.DesignCosmos())
		if instrument {
			reg := telemetry.NewRegistry()
			s.RegisterMetrics(reg.Root())
			var sink strings.Builder
			sp, err := telemetry.NewSampler(reg, telemetry.SamplerConfig{Interval: 5_000, JSONL: &sink})
			if err != nil {
				t.Fatal(err)
			}
			s.AttachSampler(sp)
		}
		return s.Run(trace.Limit(telemetryGen(), 15_000), 15_000)
	}
	bare, instrumented := run(false), run(true)
	// Compare the predictor stats by value, then the rest of the structs
	// (which are otherwise pointer-free and directly comparable).
	if (bare.DataPred == nil) != (instrumented.DataPred == nil) ||
		(bare.DataPred != nil && *bare.DataPred != *instrumented.DataPred) {
		t.Errorf("telemetry changed data predictor stats: %+v vs %+v", bare.DataPred, instrumented.DataPred)
	}
	if (bare.CtrPred == nil) != (instrumented.CtrPred == nil) ||
		(bare.CtrPred != nil && *bare.CtrPred != *instrumented.CtrPred) {
		t.Errorf("telemetry changed ctr predictor stats: %+v vs %+v", bare.CtrPred, instrumented.CtrPred)
	}
	bare.DataPred, bare.CtrPred = nil, nil
	instrumented.DataPred, instrumented.CtrPred = nil, nil
	if bare != instrumented {
		t.Errorf("telemetry changed simulation results:\nbare:         %+v\ninstrumented: %+v", bare, instrumented)
	}
}

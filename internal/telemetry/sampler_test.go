package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

// decodeJSONL parses every line of a JSONL buffer.
func decodeJSONL(t *testing.T, s string) []map[string]any {
	t.Helper()
	var rows []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		rows = append(rows, m)
	}
	return rows
}

func TestSamplerIntervalAlignmentAndFlush(t *testing.T) {
	r := NewRegistry()
	var ctr uint64
	r.Root().Counter("ctr", &ctr)

	var out strings.Builder
	sp, err := NewSampler(r, SamplerConfig{Interval: 100, JSONL: &out})
	if err != nil {
		t.Fatal(err)
	}

	// Drive 250 accesses, one at a time, the counter advancing by 2 per
	// access. Samples must land exactly at 100 and 200; Flush emits the
	// partial [200, 250] interval.
	for n := uint64(1); n <= 250; n++ {
		ctr += 2
		sp.MaybeSample(n)
	}
	sp.Flush(250)
	if err := sp.Err(); err != nil {
		t.Fatal(err)
	}

	rows := decodeJSONL(t, out.String())
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 (two full intervals + final partial)", len(rows))
	}
	wantAcc := []float64{100, 200, 250}
	wantDelta := []float64{100, 100, 50}
	wantCtr := []float64{200, 200, 100}
	for i, row := range rows {
		if row["interval"].(float64) != float64(i) {
			t.Errorf("row %d: interval = %v", i, row["interval"])
		}
		if row["accesses"].(float64) != wantAcc[i] {
			t.Errorf("row %d: accesses = %v, want %v", i, row["accesses"], wantAcc[i])
		}
		if row["delta"].(float64) != wantDelta[i] {
			t.Errorf("row %d: delta = %v, want %v", i, row["delta"], wantDelta[i])
		}
		if row["ctr"].(float64) != wantCtr[i] {
			t.Errorf("row %d: ctr delta = %v, want %v", i, row["ctr"], wantCtr[i])
		}
	}
}

func TestSamplerSkippedBoundariesRealign(t *testing.T) {
	r := NewRegistry()
	var ctr uint64
	r.Root().Counter("ctr", &ctr)
	var out strings.Builder
	sp, _ := NewSampler(r, SamplerConfig{Interval: 100, JSONL: &out})

	// A caller jumping straight to 450 gets one sample and the next
	// boundary realigns to 500, not 550.
	sp.MaybeSample(450)
	sp.MaybeSample(460) // below 500: no sample
	sp.MaybeSample(500)
	sp.Flush(500) // nothing since last sample: no extra row

	rows := decodeJSONL(t, out.String())
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0]["accesses"].(float64) != 450 || rows[1]["accesses"].(float64) != 500 {
		t.Errorf("sample points = %v, %v; want 450, 500", rows[0]["accesses"], rows[1]["accesses"])
	}
}

func TestSamplerFlushWithoutNewAccessesEmitsNothing(t *testing.T) {
	r := NewRegistry()
	var ctr uint64
	r.Root().Counter("ctr", &ctr)
	var out strings.Builder
	sp, _ := NewSampler(r, SamplerConfig{Interval: 10, JSONL: &out})
	sp.Flush(0)
	if out.Len() != 0 {
		t.Errorf("Flush(0) wrote %q, want nothing", out.String())
	}
}

func TestSamplerRatesAndGauges(t *testing.T) {
	r := NewRegistry()
	var miss, acc uint64
	g := 1.0
	root := r.Root()
	root.RateOf("miss_rate", &miss, &acc)
	root.Gauge("gauge", func() float64 { return g })

	var out strings.Builder
	sp, _ := NewSampler(r, SamplerConfig{Interval: 10, JSONL: &out})

	miss, acc, g = 5, 10, 2.5
	sp.MaybeSample(10)
	// Second interval: 1 more miss in 10 more accesses → interval rate 0.1,
	// not the cumulative 6/20.
	miss, acc, g = 6, 20, 7.5
	sp.MaybeSample(20)

	rows := decodeJSONL(t, out.String())
	if got := rows[0]["miss_rate"].(float64); got != 0.5 {
		t.Errorf("interval 0 miss_rate = %v, want 0.5", got)
	}
	if got := rows[1]["miss_rate"].(float64); got != 0.1 {
		t.Errorf("interval 1 miss_rate = %v, want 0.1 (per-interval, not cumulative)", got)
	}
	if got := rows[1]["gauge"].(float64); got != 7.5 {
		t.Errorf("gauge = %v, want 7.5 (instantaneous)", got)
	}
}

func TestSamplerRateZeroDenominator(t *testing.T) {
	r := NewRegistry()
	var num, den uint64
	r.Root().RateOf("rate", &num, &den)
	var out strings.Builder
	sp, _ := NewSampler(r, SamplerConfig{Interval: 10, JSONL: &out})
	sp.MaybeSample(10)
	if got := decodeJSONL(t, out.String())[0]["rate"].(float64); got != 0 {
		t.Errorf("rate with zero denominator = %v, want 0", got)
	}
}

func TestSamplerCounterResetTolerated(t *testing.T) {
	r := NewRegistry()
	var ctr uint64
	r.Root().Counter("ctr", &ctr)
	var out strings.Builder
	sp, _ := NewSampler(r, SamplerConfig{Interval: 10, JSONL: &out})

	ctr = 100
	sp.MaybeSample(10)
	ctr = 7 // stats reset mid-run (e.g. warmup boundary)
	sp.MaybeSample(20)

	rows := decodeJSONL(t, out.String())
	if got := rows[1]["ctr"].(float64); got != 7 {
		t.Errorf("post-reset delta = %v, want 7", got)
	}
}

func TestSamplerHistogramColumns(t *testing.T) {
	r := NewRegistry()
	h := r.Root().Histogram("lat")
	var out strings.Builder
	sp, _ := NewSampler(r, SamplerConfig{Interval: 10, JSONL: &out})

	h.Observe(100)
	h.Observe(300)
	sp.MaybeSample(10)
	h.Observe(50)
	sp.MaybeSample(20)

	rows := decodeJSONL(t, out.String())
	if got := rows[0]["lat.count"].(float64); got != 2 {
		t.Errorf("interval 0 lat.count = %v, want 2", got)
	}
	if got := rows[0]["lat.mean"].(float64); got != 200 {
		t.Errorf("interval 0 lat.mean = %v, want 200", got)
	}
	if got := rows[1]["lat.count"].(float64); got != 1 {
		t.Errorf("interval 1 lat.count = %v, want 1 (delta)", got)
	}
	if got := rows[1]["lat.mean"].(float64); got != 50 {
		t.Errorf("interval 1 lat.mean = %v, want 50 (interval mean)", got)
	}
	if _, ok := rows[0]["lat.buckets"]; !ok {
		t.Error("JSONL row missing lat.buckets array")
	}
}

func TestSamplerCSV(t *testing.T) {
	r := NewRegistry()
	var ctr uint64
	root := r.Root()
	root.Counter("a,weird \"name\"", &ctr) // must survive CSV quoting
	root.Gauge("g", func() float64 { return 0.25 })

	var out strings.Builder
	sp, err := NewSampler(r, SamplerConfig{Interval: 10, CSV: &out})
	if err != nil {
		t.Fatal(err)
	}
	ctr = 3
	sp.MaybeSample(10)
	sp.Flush(10)
	if err := sp.Err(); err != nil {
		t.Fatal(err)
	}

	recs, err := csv.NewReader(strings.NewReader(out.String())).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not re-parse: %v\n%s", err, out.String())
	}
	if len(recs) != 2 {
		t.Fatalf("got %d CSV records, want header + 1 row", len(recs))
	}
	if recs[0][3] != `a,weird "name"` {
		t.Errorf("header cell = %q, want the raw metric name", recs[0][3])
	}
	if recs[1][3] != "3" || recs[1][4] != "0.25" {
		t.Errorf("row = %v, want counter 3 and gauge 0.25", recs[1])
	}
}

func TestSamplerConfigValidation(t *testing.T) {
	r := NewRegistry()
	if _, err := NewSampler(r, SamplerConfig{Interval: 0, JSONL: &strings.Builder{}}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewSampler(r, SamplerConfig{Interval: 10}); err == nil {
		t.Error("sampler with neither a JSONL nor a CSV sink accepted")
	}
}

package perf

import (
	"path/filepath"
	"strings"
	"testing"
)

func sampleReport(seq int) *Report {
	r := &Report{
		Schema:      SchemaVersion,
		Seq:         seq,
		CreatedUnix: 1_700_000_000,
		Fingerprint: CollectFingerprint(),
		Suite:       SuiteInfo{Samples: 5, StepOps: 1000, DecodeOps: 1000},
		Metrics: []Metric{
			{Name: "step.COSMOS.ns_per_op", Unit: "ns/op", Better: BetterLower, Samples: []float64{100, 101, 99, 100, 102}},
			{Name: "decode.tracefile.accesses_per_sec", Unit: "accesses/sec", Better: BetterHigher, Samples: []float64{9e6, 9.1e6, 8.9e6, 9.05e6, 9.02e6}},
		},
	}
	r.finalize()
	return r
}

func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	r := sampleReport(6)
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != r.Seq || got.Schema != SchemaVersion || len(got.Metrics) != len(r.Metrics) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	m := got.Metric("step.COSMOS.ns_per_op")
	if m == nil {
		t.Fatal("metric lost in round trip")
	}
	if m.Median != 100 {
		t.Fatalf("median = %v, want 100", m.Median)
	}
	if got.Fingerprint != r.Fingerprint {
		t.Fatalf("fingerprint changed in round trip: %+v vs %+v", got.Fingerprint, r.Fingerprint)
	}
	if got.Metric("no.such.metric") != nil {
		t.Fatal("lookup of absent metric should be nil")
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	r := sampleReport(1)
	r.Schema = "cosmos-perf-v999"
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema accepted: err=%v", err)
	}
}

func TestHistoryAppendRead(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "perf", "HISTORY.jsonl")
	for seq := 1; seq <= 3; seq++ {
		if err := AppendHistory(path, HistoryEntryOf(sampleReport(seq))); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := ReadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("read %d entries, want 3", len(entries))
	}
	for i, e := range entries {
		if e.Seq != i+1 {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
		if e.FingerprintID == "" || len(e.Medians) != 2 {
			t.Fatalf("entry %d incomplete: %+v", i, e)
		}
		if e.Medians["step.COSMOS.ns_per_op"] != 100 {
			t.Fatalf("entry %d median = %v", i, e.Medians["step.COSMOS.ns_per_op"])
		}
	}
}

func TestFingerprintStability(t *testing.T) {
	a, b := CollectFingerprint(), CollectFingerprint()
	if a != b {
		t.Fatalf("fingerprint not stable across calls: %+v vs %+v", a, b)
	}
	if a.ID() != b.ID() || len(a.ID()) != 12 {
		t.Fatalf("fingerprint ID unstable or wrong length: %q vs %q", a.ID(), b.ID())
	}
	if diff := a.Diff(b); len(diff) != 0 {
		t.Fatalf("self diff not empty: %v", diff)
	}
	c := a
	c.GoVersion = "go0.0"
	c.NumCPU++
	if diff := a.Diff(c); len(diff) != 2 {
		t.Fatalf("diff = %v, want 2 fields", diff)
	}
	if a.GoVersion == "" || a.GOOS == "" || a.NumCPU < 1 {
		t.Fatalf("fingerprint missing required fields: %+v", a)
	}
	if !strings.Contains(a.String(), a.GoVersion) {
		t.Fatalf("String() omits go version: %q", a.String())
	}
}

func TestMetricNamesUnion(t *testing.T) {
	a := &Report{Metrics: []Metric{{Name: "b"}, {Name: "a"}}}
	b := &Report{Metrics: []Metric{{Name: "c"}, {Name: "a"}}}
	got := MetricNames(a, b)
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

// TestCommittedBaselinesLoad keeps the committed perf trajectory usable as a
// ratchet baseline: every BENCH_*.json still parses, and comparing BENCH_8
// against a report without its retired engine.* metrics marks those rows
// baseline-only instead of failing the ratchet.
func TestCommittedBaselinesLoad(t *testing.T) {
	paths, _ := filepath.Glob("../../BENCH_*.json")
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json found")
	}
	for _, p := range paths {
		if _, err := ReadReport(p); err != nil {
			t.Fatal(err)
		}
	}
	base, err := ReadReport("../../BENCH_8.json")
	if err != nil {
		t.Fatal(err)
	}
	cur := *base
	cur.Metrics = nil
	for _, m := range base.Metrics {
		if !strings.HasPrefix(m.Name, "engine.") {
			cur.Metrics = append(cur.Metrics, m)
		}
	}
	c := Compare(base, &cur, CompareOpts{})
	if c.Regressed() {
		t.Fatalf("comparison regressed: %+v", c.Deltas)
	}
	notes := map[string]string{}
	for _, d := range c.Deltas {
		notes[d.Name] = d.Note
	}
	for _, name := range []string{"engine.serial.accesses_per_sec", "engine.parallel.accesses_per_sec"} {
		if notes[name] != "only in baseline" {
			t.Fatalf("%s: note %q, want \"only in baseline\"", name, notes[name])
		}
	}
}

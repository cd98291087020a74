package telemetry

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTrees is a hand-built exemplar set: two off-chip accesses on core 0
// (given out of access order, as TopSpans returns them slowest first) and
// an L1 hit on core 1.
func goldenTrees() []AccessSpan {
	fetch := func(dur, ctrDur uint64, ctrHit bool) Span {
		ctr := Span{Cause: CauseCtrMiss, Label: "ctr+otp", Start: 2, Dur: ctrDur,
			Children: []Span{{Cause: CauseMTWalk, Start: 2, Dur: 0, Value: 3}}}
		if ctrHit {
			ctr = Span{Cause: CauseCtrHit, Label: "ctr+otp", Start: 2, Dur: ctrDur}
		}
		return Span{Cause: CauseFetch, Start: 2, Dur: dur, Children: []Span{
			{Cause: CauseWalk, Label: "l2+llc walk", Start: 2, Dur: 148},
			ctr,
			{Cause: CauseDataDRAM, Label: "dram (speculative)", Start: 2, Dur: 102},
			{Cause: CauseMACFetch, Start: 0, Dur: 18},
		}}
	}
	levels := []Span{
		{Cause: CauseLevelMiss, Label: "l1", Start: 0, Dur: 2},
		{Cause: CauseLevelMiss, Label: "l2", Start: 2, Dur: 20},
		{Cause: CauseLevelMiss, Label: "llc", Start: 22, Dur: 128},
	}
	return []AccessSpan{
		{Index: 9, Core: 0, Line: 77, Total: 400, Root: Span{Cause: CauseAccess, Dur: 400,
			Children: append(append([]Span(nil), levels...), fetch(398, 390, false))}},
		{Index: 4, Core: 0, Line: 12, Total: 260, Root: Span{Cause: CauseAccess, Dur: 260,
			Children: append(append([]Span(nil), levels...), fetch(258, 110, true))}},
		{Index: 6, Core: 1, Line: 5, Total: 2, Root: Span{Cause: CauseAccess, Dur: 2}},
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var out strings.Builder
	if err := WriteChromeTrace(&out, goldenTrees()); err != nil {
		t.Fatal(err)
	}
	got := out.String()

	path := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/telemetry -run ChromeTraceGolden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("trace JSON diverged from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestChromeTraceLayout checks the properties the golden encodes: metadata
// first, one slice per tree node, and a core's trees laid end to end in
// access order.
func TestChromeTraceLayout(t *testing.T) {
	var out strings.Builder
	if err := WriteChromeTrace(&out, goldenTrees()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var slices []traceEvent
	sawSlice := false
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if sawSlice {
				t.Fatalf("metadata %+v after a slice", ev)
			}
		case "X":
			sawSlice = true
			slices = append(slices, ev)
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	// 2 trees x (root + 3 level misses + fetch + 4 chains, one with an MT
	// walk child) + 1 bare root.
	if len(slices) != 10+9+1 {
		t.Fatalf("got %d slices, want 20", len(slices))
	}
	// Core 0: access 4 first at ts 0; its latest node ends at 260, so
	// access 9 starts there.
	var roots []traceEvent
	for _, ev := range slices {
		if ev.Tid == int(CauseAccess) {
			roots = append(roots, ev)
		}
	}
	if len(roots) != 3 ||
		roots[0].Pid != 0 || roots[0].Ts != 0 || roots[0].Args["access"] != 4.0 ||
		roots[1].Pid != 0 || roots[1].Ts != 260 || roots[1].Args["access"] != 9.0 ||
		roots[2].Pid != 1 || roots[2].Ts != 0 {
		t.Fatalf("roots laid out wrong: %+v", roots)
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var out strings.Builder
	if err := WriteChromeTrace(&out, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, out.String())
	}
}

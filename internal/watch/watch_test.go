package watch

import (
	"math"
	"testing"

	"cosmos/internal/telemetry"
)

// feed drives the dog with a synthetic single-signal series, one row per
// value, as a gauge named "sig" (no normalisation).
func feed(d *Dog, series []float64) {
	for i, v := range series {
		d.ObserveRow(telemetry.Row{
			Interval: i,
			Accesses: uint64(i+1) * 1000,
			Delta:    1000,
			Values:   map[string]float64{"sig": v},
		})
	}
}

// noise is a fixed pseudo-random sequence around mean 10, std ~1 — the
// same every run (tests must be deterministic, and the package bans
// runtime randomness anyway).
func noise(n int, seed uint64) []float64 {
	out := make([]float64, n)
	x := seed
	for i := range out {
		// xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u := float64(x%2000)/1000 - 1 // [-1, 1)
		out[i] = 10 + u
	}
	return out
}

func TestWatchdogStepChangeDetected(t *testing.T) {
	events := []Event{}
	d := New(nil, Config{
		Signals: []string{"sig"},
		Notify:  func(ev Event) { events = append(events, ev) },
	})
	series := append(noise(20, 42), make([]float64, 10)...)
	for i := 20; i < 30; i++ {
		series[i] = 25 + noise(1, uint64(i))[0] - 10 // step to ~25
	}
	feed(d, series)

	if d.AnomalyCount() == 0 {
		t.Fatal("step change raised no anomaly")
	}
	if d.PhaseCount() == 0 {
		t.Fatal("sustained step change tripped no phase change")
	}
	// The issue's bar: detection within two intervals of the change.
	first := -1
	for _, ev := range events {
		if first == -1 || ev.Interval < first {
			first = ev.Interval
		}
	}
	if first < 20 || first > 21 {
		t.Fatalf("first detection at interval %d, want 20 or 21", first)
	}

	sn := d.Snapshot()
	if len(sn.Phases) < 2 {
		t.Fatalf("snapshot has %d phases, want >= 2", len(sn.Phases))
	}
	p0 := sn.Phases[0]
	if p0.EndInterval == -1 {
		t.Fatal("phase 0 still open after a phase change")
	}
	if sn.Phases[1].Trigger != "sig" {
		t.Fatalf("phase 1 trigger = %q, want sig", sn.Phases[1].Trigger)
	}
	s0, ok := p0.Signals["sig"]
	if !ok || s0.N == 0 || math.Abs(s0.Mean-10) > 3 {
		t.Fatalf("phase 0 summary = %+v, want mean near 10", s0)
	}
	if sn.Phases[len(sn.Phases)-1].EndInterval != -1 {
		t.Fatal("last phase must be open")
	}
}

func TestWatchdogPureNoiseNeverAlarms(t *testing.T) {
	d := New(nil, Config{Signals: []string{"sig"}})
	feed(d, noise(500, 7))
	if n := d.AnomalyCount(); n != 0 {
		t.Fatalf("pure noise raised %d anomalies", n)
	}
	if n := d.PhaseCount(); n != 0 {
		t.Fatalf("pure noise tripped %d phase changes", n)
	}
	sn := d.Snapshot()
	if len(sn.Phases) != 1 || sn.Rows != 500 {
		t.Fatalf("snapshot = %d phases / %d rows, want 1/500", len(sn.Phases), sn.Rows)
	}
}

func TestWatchdogConstantThenBurst(t *testing.T) {
	// A storm shape: a counter flat at zero, then a burst. The
	// constant series has zero variance; the epsilon floor must make the
	// burst an immediate anomaly, not a division blow-up.
	var events []Event
	reg := telemetry.NewRegistry()
	var overflows uint64
	reg.Root().Scope("secmem").Scope("reenc").Counter("overflow_events", &overflows)
	d := New(reg, Config{
		Signals: []string{"secmem.reenc.overflow_events"},
		Notify:  func(ev Event) { events = append(events, ev) },
	})
	for i := 0; i < 15; i++ {
		v := 0.0
		if i >= 12 {
			v = 40 // overflows per interval during the burst
		}
		d.ObserveRow(telemetry.Row{
			Interval: i, Accesses: uint64(i+1) * 1000, Delta: 1000,
			Values: map[string]float64{"secmem.reenc.overflow_events": v},
		})
	}
	if d.AnomalyCount() == 0 {
		t.Fatal("overflow burst raised no anomaly")
	}
	if events[0].Interval != 12 {
		t.Fatalf("burst detected at interval %d, want 12 (within two intervals)", events[0].Interval)
	}
	if events[0].Kind != "anomaly" || events[0].Signal != "secmem.reenc.overflow_events" {
		t.Fatalf("event = %+v", events[0])
	}
}

func TestWatchdogCounterNormalisation(t *testing.T) {
	// A counter tracked through a registry is normalised per access: a
	// short final interval with proportionally fewer counts must NOT
	// read as a drop.
	reg := telemetry.NewRegistry()
	var c uint64
	reg.Root().Scope("sim").Counter("offchip_reads", &c)
	d := New(reg, Config{Signals: []string{"sim.offchip_reads"}})
	for i := 0; i < 20; i++ {
		d.ObserveRow(telemetry.Row{
			Interval: i, Accesses: uint64(i+1) * 1000, Delta: 1000,
			Values: map[string]float64{"sim.offchip_reads": 300},
		})
	}
	// Flush row: 1/10th the interval, 1/10th the delta — same rate.
	d.ObserveRow(telemetry.Row{
		Interval: 20, Accesses: 20_100, Delta: 100,
		Values: map[string]float64{"sim.offchip_reads": 30},
	})
	if n := d.AnomalyCount(); n != 0 {
		t.Fatalf("proportional flush row raised %d anomalies", n)
	}
}

func TestWatchdogIgnoresMissingSignals(t *testing.T) {
	d := New(nil, Config{}) // default signal set, none present in rows
	feed(d, noise(50, 3))   // only "sig", which is not tracked
	sn := d.Snapshot()
	if sn.AnomalyCount != 0 || sn.PhaseChanges != 0 {
		t.Fatalf("untracked rows alarmed: %+v", sn)
	}
	if len(sn.Signals) != len(DefaultSignals()) {
		t.Fatalf("signals = %v", sn.Signals)
	}
}

func TestWatchdogMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := New(nil, Config{Signals: []string{"sig"}})
	d.RegisterMetrics(reg.Root().Scope("watch"))
	series := append(noise(20, 42), 100, 100, 100, 100, 100)
	feed(d, series)
	var anomalies, phases, rows float64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "watch.anomalies":
			anomalies = s.Value()
		case "watch.phase_changes":
			phases = s.Value()
		case "watch.rows":
			rows = s.Value()
		}
	}
	if anomalies == 0 || phases == 0 {
		t.Fatalf("metrics: anomalies %v phases %v", anomalies, phases)
	}
	if rows != float64(len(series)) {
		t.Fatalf("rows metric %v, want %d", rows, len(series))
	}
}

// Package watch is the online phase/anomaly watchdog: a CUSUM + rolling-z
// change detector consuming the interval sampler's time-series in-process
// (telemetry.SamplerConfig.Observer), with no disk or serialisation
// round-trip. It answers two questions the raw time-series leaves to
// offline analysis: "did this interval look wildly unlike the run so far?"
// (anomaly — a re-encryption storm, a CTR-occupancy swing) and "has the run's
// steady-state behaviour shifted?" (phase change — a workload switch, a
// working-set migration).
//
// The math, per tracked signal, within the current phase:
//
//	Welford running mean/variance over the phase's samples;
//	z    = (x − mean) / max(std, ε)           after MinSamples warmup
//	anomaly      when |z| > Z
//	CUSUM  S⁺ = max(0, S⁺ + min(z, clamp) − K)
//	       S⁻ = max(0, S⁻ − max(z, −clamp) − K)
//	phase change when S⁺ > H or S⁻ > H
//
// z is winsorised at ±clamp before entering the CUSUM sums so one wild
// interval raises an anomaly but cannot flip the phase alone — a sustained
// shift of ~1σ crosses H within a few intervals. A phase change closes the
// current segment and resets every signal's statistics, so detection
// re-learns the new regime. Counter signals are normalised to per-access
// rates before detection (the final partial interval would otherwise read
// as a spurious step).
package watch

import (
	"math"
	"sync"

	"cosmos/internal/telemetry"
)

// Config tunes a Dog. The zero value is usable: DefaultSignals, and the
// default thresholds below.
type Config struct {
	// Signals are the sampler metric names to track. Signals absent from
	// a row (e.g. "secmem.data_pred.accuracy" on a design without the data
	// predictor) are silently ignored. Empty = DefaultSignals().
	Signals []string
	// MinSamples is the per-phase warmup before the detector may alarm
	// (default 8 intervals).
	MinSamples int
	// Z is the rolling-z anomaly threshold in phase standard deviations
	// (default 6).
	Z float64
	// K is the CUSUM slack in standard deviations: drift below K/interval
	// is absorbed (default 0.5).
	K float64
	// H is the CUSUM decision threshold (default 8): a sustained 1σ shift
	// fires in ≈ H/(1−K) intervals after warmup.
	H float64
	// Notify, when non-nil, receives every event synchronously on the
	// simulation goroutine (wire it to slog and the SSE broker).
	Notify func(Event)
}

// DefaultSignals are the run-health signals tracked when Config.Signals is
// empty: off-chip pressure, mean fetch latency, CTR-cache locality and walk
// bypass behaviour.
func DefaultSignals() []string {
	return []string{
		"sim.offchip_reads",
		"sim.avg_fetch_lat",
		"sim.bypass_rate",
		"secmem.ctr.miss_rate",
	}
}

const (
	defaultMinSamples = 8
	defaultZ          = 6
	defaultK          = 0.5
	defaultH          = 8
	// zClamp winsorises the CUSUM increment; anomalies still see raw z.
	zClamp = 4
)

// Event is one detection: Kind "anomaly" or "phase_change".
type Event struct {
	Kind     string  `json:"kind"`
	Signal   string  `json:"signal"`
	Interval int     `json:"interval"`
	Accesses uint64  `json:"accesses"`
	Value    float64 `json:"value"`
	Mean     float64 `json:"mean"`
	Std      float64 `json:"std"`
	Z        float64 `json:"z"`
	// Phase is the phase index the event happened in; for a phase_change
	// it is the index of the NEW phase just opened.
	Phase int `json:"phase"`
}

// SignalSummary is one signal's distribution over one phase.
type SignalSummary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// PhaseInfo is one detected segment of the run.
type PhaseInfo struct {
	Index         int    `json:"index"`
	StartInterval int    `json:"start_interval"`
	EndInterval   int    `json:"end_interval"` // -1 while the phase is open
	StartAccesses uint64 `json:"start_accesses"`
	EndAccesses   uint64 `json:"end_accesses"`
	// Trigger names the signal whose CUSUM opened this phase ("" for
	// phase 0).
	Trigger string                   `json:"trigger,omitempty"`
	Signals map[string]SignalSummary `json:"signals"`
}

// Snapshot is the /phases payload for one run.
type Snapshot struct {
	Signals      []string    `json:"signals"`
	Rows         int         `json:"rows"`
	AnomalyCount uint64      `json:"anomaly_count"`
	PhaseChanges uint64      `json:"phase_changes"`
	Phases       []PhaseInfo `json:"phases"`
	// Anomalies keeps the most recent detections (bounded; see maxKept).
	Anomalies []Event `json:"anomalies"`
}

// maxKept bounds the retained anomaly list in a Snapshot.
const maxKept = 64

// sigState is one signal's per-phase detector state plus its current-phase
// summary accumulator.
type sigState struct {
	name    string
	counter bool // normalise by the interval's access delta

	n          int
	mean, m2   float64
	sPos, sNeg float64

	sum      float64
	min, max float64
}

func (st *sigState) reset() {
	st.n, st.mean, st.m2 = 0, 0, 0
	st.sPos, st.sNeg = 0, 0
	st.sum, st.min, st.max = 0, 0, 0
}

// Dog is the watchdog instance for one run. ObserveRow is driven from the
// simulation goroutine; Snapshot may be called concurrently (the obs
// plane), so all mutable state is mutex-guarded.
type Dog struct {
	cfg  Config
	reg  *telemetry.Registry
	sigs []*sigState

	mu        sync.Mutex
	rows      int
	phases    []PhaseInfo
	anomalies []Event

	// Prometheus-facing counters (registered under the "watch" scope).
	anomalyCount uint64
	phaseCount   uint64
	rowCount     uint64
}

// New builds a watchdog over the run's registry (used to classify signals
// as counters for per-access normalisation; rates and gauges pass through).
func New(reg *telemetry.Registry, cfg Config) *Dog {
	if len(cfg.Signals) == 0 {
		cfg.Signals = DefaultSignals()
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = defaultMinSamples
	}
	if cfg.Z <= 0 {
		cfg.Z = defaultZ
	}
	if cfg.K <= 0 {
		cfg.K = defaultK
	}
	if cfg.H <= 0 {
		cfg.H = defaultH
	}
	d := &Dog{cfg: cfg, reg: reg}
	for _, name := range cfg.Signals {
		st := &sigState{name: name}
		if reg != nil {
			if k, ok := reg.Kind(name); ok && k == telemetry.KindCounter {
				st.counter = true
			}
		}
		d.sigs = append(d.sigs, st)
	}
	d.phases = []PhaseInfo{{Index: 0, EndInterval: -1}}
	return d
}

// RegisterMetrics exposes the watchdog's own counters under the scope
// (conventionally "watch", yielding the cosmos_watch_* Prometheus
// families).
func (d *Dog) RegisterMetrics(s *telemetry.Scope) {
	s.Counter("anomalies", &d.anomalyCount)
	s.Counter("phase_changes", &d.phaseCount)
	s.Counter("rows", &d.rowCount)
	s.Gauge("phase", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.phases) - 1)
	})
}

// ObserveRow consumes one sampler row: update every tracked signal's phase
// statistics, raise anomalies, and on a CUSUM trip close the current phase.
// Wire it as telemetry.SamplerConfig.Observer.
func (d *Dog) ObserveRow(row telemetry.Row) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rows++
	d.rowCount++
	cur := &d.phases[len(d.phases)-1]
	if cur.Signals == nil {
		cur.Signals = make(map[string]SignalSummary, len(d.sigs))
		cur.StartInterval = row.Interval
		cur.StartAccesses = row.Accesses - row.Delta
	}
	cur.EndAccesses = row.Accesses

	var trip *sigState
	var tripEv Event
	for _, st := range d.sigs {
		x, ok := row.Values[st.name]
		if !ok {
			continue
		}
		if st.counter && row.Delta > 0 {
			x /= float64(row.Delta) // per-access rate
		}
		// Phase summary (all samples, including warmup).
		if st.n == 0 {
			st.min, st.max = x, x
		} else {
			st.min = math.Min(st.min, x)
			st.max = math.Max(st.max, x)
		}
		st.sum += x

		if st.n >= d.cfg.MinSamples {
			std := math.Sqrt(st.m2 / float64(st.n-1))
			eps := 1e-9 + 1e-6*math.Abs(st.mean)
			if std < eps {
				std = eps
			}
			z := (x - st.mean) / std
			if math.Abs(z) > d.cfg.Z {
				d.anomalyCount++
				ev := Event{
					Kind: "anomaly", Signal: st.name,
					Interval: row.Interval, Accesses: row.Accesses,
					Value: x, Mean: st.mean, Std: std, Z: z,
					Phase: len(d.phases) - 1,
				}
				d.keep(ev)
				if d.cfg.Notify != nil {
					d.cfg.Notify(ev)
				}
			}
			zc := math.Max(math.Min(z, zClamp), -zClamp)
			st.sPos = math.Max(0, st.sPos+zc-d.cfg.K)
			st.sNeg = math.Max(0, st.sNeg-zc-d.cfg.K)
			if (st.sPos > d.cfg.H || st.sNeg > d.cfg.H) && trip == nil {
				trip = st
				tripEv = Event{
					Kind: "phase_change", Signal: st.name,
					Interval: row.Interval, Accesses: row.Accesses,
					Value: x, Mean: st.mean, Std: std, Z: z,
					Phase: len(d.phases),
				}
			}
		}
		// Welford update (anomalous samples included: the phase's own
		// statistics must track what actually happened in it).
		st.n++
		delta := x - st.mean
		st.mean += delta / float64(st.n)
		st.m2 += delta * (x - st.mean)
		cur.Signals[st.name] = SignalSummary{
			N: st.n, Mean: st.sum / float64(st.n), Min: st.min, Max: st.max,
		}
	}

	if trip != nil {
		cur.EndInterval = row.Interval
		d.phaseCount++
		for _, st := range d.sigs {
			st.reset()
		}
		d.phases = append(d.phases, PhaseInfo{
			Index:         len(d.phases),
			StartInterval: row.Interval + 1,
			EndInterval:   -1,
			StartAccesses: row.Accesses,
			EndAccesses:   row.Accesses,
			Trigger:       trip.name,
		})
		d.keep(tripEv)
		if d.cfg.Notify != nil {
			d.cfg.Notify(tripEv)
		}
	}
}

// keep appends ev to the bounded anomaly list (callers hold d.mu).
func (d *Dog) keep(ev Event) {
	if len(d.anomalies) >= maxKept {
		copy(d.anomalies, d.anomalies[1:])
		d.anomalies = d.anomalies[:maxKept-1]
	}
	d.anomalies = append(d.anomalies, ev)
}

// AnomalyCount reports the anomalies raised so far.
func (d *Dog) AnomalyCount() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.anomalyCount
}

// PhaseCount reports the phase changes detected so far.
func (d *Dog) PhaseCount() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.phaseCount
}

// Snapshot returns the watchdog's current view: detected segments with
// per-phase signal summaries plus the recent anomaly list. Safe to call
// while the run executes.
func (d *Dog) Snapshot() Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	sn := Snapshot{
		Signals:      d.cfg.Signals,
		Rows:         d.rows,
		AnomalyCount: d.anomalyCount,
		PhaseChanges: d.phaseCount,
		Phases:       make([]PhaseInfo, len(d.phases)),
		Anomalies:    append([]Event(nil), d.anomalies...),
	}
	for i, p := range d.phases {
		cp := p
		cp.Signals = make(map[string]SignalSummary, len(p.Signals))
		for k, v := range p.Signals {
			cp.Signals[k] = v
		}
		sn.Phases[i] = cp
	}
	return sn
}

// Package telemetry is the simulator's observability layer: a typed metric
// registry (counters, gauges, log2-bucketed histograms and derived
// per-interval rates) organised into named hierarchical scopes, an interval
// Sampler that snapshots every registered metric each N accesses and emits a
// gem5-style stats time-series (JSONL and CSV), and a SpanRecorder that
// builds per-access span trees and per-cause latency distributions. The
// recorder's slowest trees export as Chrome trace_event JSON
// (WriteChromeTrace), loadable in about://tracing and Perfetto.
//
// The design principle is that registration is cheap and sampling is pull:
// metrics reference counters the simulator already maintains (by pointer or
// closure), so the hot path is untouched. Histograms are push-style; an
// owner either observes one unconditionally (a plain value next to the
// counters it mirrors) or behind the check of the recorder that owns it.
// A nil *Sampler or nil *SpanRecorder is the disabled state and costs one
// predictable branch per site.
//
// Metric names are dot-separated paths, e.g. "core0.l1.miss_rate" or
// "secmem.ctr.hit_rate". See README.md "Observability" for the naming scheme
// and the JSONL schema.
package telemetry

import (
	"fmt"
	"sort"
)

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindRate
	kindHist
)

// metric is one registered entry: a name plus exactly one source according
// to its kind.
type metric struct {
	name  string
	kind  metricKind
	count func() uint64 // kindCounter
	gauge func() float64
	num   func() uint64 // kindRate numerator / denominator
	den   func() uint64
	hist  *Histogram
}

// Registry holds the full metric set of one simulated system. Metrics are
// registered once (between construction and the first sample) through Scopes
// and then sampled repeatedly. Registration of a duplicate name panics: the
// name space is the API between the instrumented packages and the output
// files, and a silent collision would corrupt both.
type Registry struct {
	metrics []metric
	index   map[string]int
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// Root returns the unprefixed scope.
func (r *Registry) Root() *Scope { return &Scope{r: r} }

// Scope returns a named top-level scope.
func (r *Registry) Scope(name string) *Scope { return &Scope{r: r, prefix: name} }

// Len reports the number of registered metrics.
func (r *Registry) Len() int { return len(r.metrics) }

// Names returns every registered metric name in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.name
	}
	return out
}

// SortedNames returns every registered metric name sorted.
func (r *Registry) SortedNames() []string {
	out := r.Names()
	sort.Strings(out)
	return out
}

func (r *Registry) register(m metric) {
	if m.name == "" {
		panic("telemetry: empty metric name")
	}
	if _, dup := r.index[m.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.name))
	}
	r.index[m.name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// Scope is a named prefix in the registry's hierarchical name space. Scopes
// are cheap handles; they can be created freely and passed down to the
// component that owns the metrics.
type Scope struct {
	r      *Registry
	prefix string
}

// Scope derives a child scope ("core0" → "core0.l1").
func (s *Scope) Scope(name string) *Scope {
	return &Scope{r: s.r, prefix: s.join(name)}
}

func (s *Scope) join(name string) string {
	if s.prefix == "" {
		return name
	}
	return s.prefix + "." + name
}

// Counter registers a monotonic counter read from an existing uint64 the
// simulator already maintains. The sampler emits the per-interval delta.
// The pointer must stay valid for the registry's lifetime (a struct field,
// not a loop variable).
func (s *Scope) Counter(name string, v *uint64) {
	s.CounterFunc(name, func() uint64 { return *v })
}

// CounterFunc registers a monotonic counter computed by f (e.g. a sum of
// several raw counters). The sampler emits the per-interval delta.
func (s *Scope) CounterFunc(name string, f func() uint64) {
	s.r.register(metric{name: s.join(name), kind: kindCounter, count: f})
}

// Gauge registers an instantaneous value sampled as-is each interval
// (an exploration rate, a Q-table coverage fraction, a queue depth).
func (s *Scope) Gauge(name string, f func() float64) {
	s.r.register(metric{name: s.join(name), kind: kindGauge, gauge: f})
}

// Rate registers a derived per-interval ratio: at each sample the sampler
// computes Δnum/Δden over the interval (0 when Δden is 0). This is how
// time-local miss rates and predictor accuracies are expressed on top of
// cumulative counters.
func (s *Scope) Rate(name string, num, den func() uint64) {
	s.r.register(metric{name: s.join(name), kind: kindRate, num: num, den: den})
}

// RateOf is Rate over two existing counters.
func (s *Scope) RateOf(name string, num, den *uint64) {
	s.Rate(name, func() uint64 { return *num }, func() uint64 { return *den })
}

// Histogram registers and returns a log2-bucketed histogram. Unlike the
// other kinds it is push-style: the owner calls Observe on the hot path,
// guarded by its own enable check.
func (s *Scope) Histogram(name string) *Histogram {
	h := &Histogram{}
	s.r.register(metric{name: s.join(name), kind: kindHist, hist: h})
	return h
}

// HistogramVar registers an existing histogram the owner already maintains
// (e.g. a SpanRecorder's per-cause array), so externally-owned
// distributions ride the sampler and /metrics without double bookkeeping.
func (s *Scope) HistogramVar(name string, h *Histogram) {
	s.r.register(metric{name: s.join(name), kind: kindHist, hist: h})
}

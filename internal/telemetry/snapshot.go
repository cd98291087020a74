package telemetry

// The pull side of the registry: Snapshot reads every registered metric's
// cumulative value at a point in time. The interval Sampler consumes deltas
// between its own samples; exposition layers (the Prometheus bridge in
// internal/obs) consume Snapshot, which carries cumulative values — the
// shape scrape-based systems expect.

// Kind classifies one registered metric for consumers of Snapshot.
type Kind int

const (
	// KindCounter is a monotonic cumulative counter.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value.
	KindGauge
	// KindRate is a derived ratio over two cumulative counters.
	KindRate
	// KindHistogram is a log2-bucketed distribution.
	KindHistogram
)

// String names the kind ("counter", "gauge", "rate", "histogram").
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindRate:
		return "rate"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// HistSnapshot is the state of one Histogram at snapshot time.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [HistBuckets]uint64
}

// Sample is one metric's cumulative reading. Exactly the fields implied by
// Kind are meaningful: Counter for KindCounter, Gauge for KindGauge,
// Num/Den for KindRate, Hist for KindHistogram.
type Sample struct {
	Name string
	Kind Kind

	Counter  uint64
	Gauge    float64
	Num, Den uint64
	Hist     HistSnapshot
}

// Value folds the sample into one float64: the counter value, the gauge,
// the cumulative ratio Num/Den (0 when Den is 0), or the histogram mean.
func (s Sample) Value() float64 {
	switch s.Kind {
	case KindCounter:
		return float64(s.Counter)
	case KindGauge:
		return s.Gauge
	case KindRate:
		if s.Den == 0 {
			return 0
		}
		return float64(s.Num) / float64(s.Den)
	case KindHistogram:
		if s.Hist.Count == 0 {
			return 0
		}
		return float64(s.Hist.Sum) / float64(s.Hist.Count)
	}
	return 0
}

// Snapshot reads every registered metric once, in registration order.
// Registration must be complete before the first call (the same contract as
// the Sampler); the read itself takes whatever locks the registered closures
// take, so a registry whose sources are mutex- or atomically-guarded is safe
// to snapshot concurrently with the system that updates it.
func (r *Registry) Snapshot() []Sample {
	out := make([]Sample, len(r.metrics))
	for i, m := range r.metrics {
		s := Sample{Name: m.name}
		switch m.kind {
		case kindCounter:
			s.Kind = KindCounter
			s.Counter = m.count()
		case kindGauge:
			s.Kind = KindGauge
			s.Gauge = m.gauge()
		case kindRate:
			s.Kind = KindRate
			s.Num, s.Den = m.num(), m.den()
		case kindHist:
			s.Kind = KindHistogram
			s.Hist = HistSnapshot{
				Count:   m.hist.count,
				Sum:     m.hist.sum,
				Max:     m.hist.max,
				Buckets: m.hist.counts,
			}
		}
		out[i] = s
	}
	return out
}

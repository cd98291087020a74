package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// SamplerConfig configures an interval Sampler. Interval is in accesses
// (the simulator's logical clock); JSONL and CSV are optional sinks — at
// least one must be set.
type SamplerConfig struct {
	Interval uint64
	JSONL    io.Writer
	CSV      io.Writer
}

// Sampler snapshots every metric of a Registry each Interval accesses and
// appends one row per interval to its sinks: a gem5-style stats time-series.
// Counters and histograms are emitted as per-interval deltas, rates as
// Δnum/Δden over the interval, gauges as instantaneous values.
//
// Drive it with MaybeSample(accesses) after each access (the call is a
// single comparison until an interval boundary is crossed) and Flush at the
// end of the run to emit the final partial interval.
type Sampler struct {
	reg      *Registry
	interval uint64

	jsonl io.Writer
	csvw  *csv.Writer

	nextAt      uint64
	lastSampled uint64
	rows        int

	// prev holds the previous cumulative values per metric: one slot for
	// counters, two (num, den) for rates, two (count, sum) for histograms.
	prev [][2]uint64

	wroteHeader bool
	csvRecord   []string
	err         error
}

// NewSampler builds a sampler over reg. The registry's metric set must be
// complete before the first sample; registering after that point panics at
// sample time via index mismatch, so register first, then sample.
func NewSampler(reg *Registry, cfg SamplerConfig) (*Sampler, error) {
	if cfg.Interval == 0 {
		return nil, fmt.Errorf("telemetry: sampler interval must be > 0")
	}
	if cfg.JSONL == nil && cfg.CSV == nil {
		return nil, fmt.Errorf("telemetry: sampler needs at least one sink")
	}
	s := &Sampler{reg: reg, interval: cfg.Interval, jsonl: cfg.JSONL, nextAt: cfg.Interval}
	if cfg.CSV != nil {
		s.csvw = csv.NewWriter(cfg.CSV)
	}
	return s, nil
}

// Interval returns the configured sampling interval in accesses.
func (s *Sampler) Interval() uint64 { return s.interval }

// Rows reports how many sample rows have been emitted.
func (s *Sampler) Rows() int { return s.rows }

// Err returns the first sink write error, if any.
func (s *Sampler) Err() error { return s.err }

// MaybeSample emits a sample if the access count has reached the next
// interval boundary. Boundaries are aligned to multiples of the interval:
// with Interval=N the rows land at accesses N, 2N, 3N, … regardless of call
// granularity.
func (s *Sampler) MaybeSample(accesses uint64) {
	if accesses < s.nextAt {
		return
	}
	s.sample(accesses)
	// Realign: skip boundaries the caller jumped over.
	s.nextAt = (accesses/s.interval + 1) * s.interval
}

// Flush emits the final partial interval (if any accesses happened since
// the last sample) and flushes the CSV sink. Call it once at the end of a
// run.
func (s *Sampler) Flush(accesses uint64) {
	if accesses > s.lastSampled {
		s.sample(accesses)
	}
	if s.csvw != nil {
		s.csvw.Flush()
		if err := s.csvw.Error(); err != nil && s.err == nil {
			s.err = err
		}
	}
}

// sample reads every metric, computes interval deltas, and writes one row
// to each sink.
func (s *Sampler) sample(accesses uint64) {
	if s.prev == nil {
		s.prev = make([][2]uint64, len(s.reg.metrics))
	}
	if len(s.prev) != len(s.reg.metrics) {
		panic("telemetry: metrics registered after sampling started")
	}
	delta := accesses - s.lastSampled

	var obj map[string]any
	if s.jsonl != nil {
		obj = make(map[string]any, len(s.reg.metrics)+3)
	}
	if s.csvw != nil && !s.wroteHeader {
		s.writeCSVHeader()
	}
	if s.csvw != nil {
		s.csvRecord = s.csvRecord[:0]
		s.csvRecord = append(s.csvRecord,
			strconv.Itoa(s.rows),
			strconv.FormatUint(accesses, 10),
			strconv.FormatUint(delta, 10))
	}

	emitU := func(name string, v uint64) {
		if obj != nil {
			obj[name] = v
		}
		if s.csvw != nil {
			s.csvRecord = append(s.csvRecord, strconv.FormatUint(v, 10))
		}
	}
	emitF := func(name string, v float64) {
		if obj != nil {
			obj[name] = v
		}
		if s.csvw != nil {
			s.csvRecord = append(s.csvRecord, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}

	for i, m := range s.reg.metrics {
		switch m.kind {
		case kindCounter:
			cur := m.count()
			emitU(m.name, counterDelta(cur, s.prev[i][0]))
			s.prev[i][0] = cur
		case kindGauge:
			emitF(m.name, m.gauge())
		case kindRate:
			cn, cd := m.num(), m.den()
			dn := counterDelta(cn, s.prev[i][0])
			dd := counterDelta(cd, s.prev[i][1])
			var v float64
			if dd > 0 {
				v = float64(dn) / float64(dd)
			}
			emitF(m.name, v)
			s.prev[i][0], s.prev[i][1] = cn, cd
		case kindHist:
			h := m.hist
			dc := counterDelta(h.count, s.prev[i][0])
			ds := counterDelta(h.sum, s.prev[i][1])
			emitU(m.name+".count", dc)
			var mean float64
			if dc > 0 {
				mean = float64(ds) / float64(dc)
			}
			emitF(m.name+".mean", mean)
			emitU(m.name+".max", h.max)
			if obj != nil {
				obj[m.name+".buckets"] = h.counts
			}
			s.prev[i][0], s.prev[i][1] = h.count, h.sum
		}
	}

	if s.jsonl != nil {
		obj["interval"] = s.rows
		obj["accesses"] = accesses
		obj["delta"] = delta
		b, err := json.Marshal(obj)
		if err == nil {
			b = append(b, '\n')
			_, err = s.jsonl.Write(b)
		}
		if err != nil && s.err == nil {
			s.err = err
		}
	}
	if s.csvw != nil {
		if err := s.csvw.Write(s.csvRecord); err != nil && s.err == nil {
			s.err = err
		}
	}

	s.lastSampled = accesses
	s.rows++
}

func (s *Sampler) writeCSVHeader() {
	header := []string{"interval", "accesses", "delta"}
	for _, m := range s.reg.metrics {
		if m.kind == kindHist {
			header = append(header, m.name+".count", m.name+".mean", m.name+".max")
			continue
		}
		header = append(header, m.name)
	}
	if err := s.csvw.Write(header); err != nil && s.err == nil {
		s.err = err
	}
	s.wroteHeader = true
}

// counterDelta is reset-tolerant: if a counter went backwards (stats were
// reset mid-run, e.g. after a warmup), the new cumulative value is the
// delta.
func counterDelta(cur, prev uint64) uint64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

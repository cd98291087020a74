package telemetry

import (
	"container/heap"
	"fmt"
	"sync"
)

// This file is the access-level span layer: a SpanRecorder that (a) feeds
// per-cause log2 histograms on every occurrence — full latency
// distributions, not means — and (b) builds a complete span tree for a
// deterministic 1-in-N subset of accesses, keeping the slowest K trees in a
// bounded reservoir. The simulator and the secure-memory engine annotate
// the recorder from their existing hot-path sites; a nil recorder costs one
// predictable branch per site, preserving the zero-alloc disabled contract.
// WriteChromeTrace exports the kept trees for a trace viewer.

// SpanCause classifies one node of an access span tree. The same enum
// indexes the recorder's per-cause histograms, so the tree labels and the
// tail percentiles cannot drift apart.
type SpanCause uint8

const (
	// CauseAccess is the root of every span tree: one sampled access,
	// Dur = its critical-path latency. Its histogram sees every access.
	CauseAccess SpanCause = iota
	// CauseLevelMiss is an on-chip lookup that missed (Label = the level
	// name); its duration is the level's lookup latency.
	CauseLevelMiss
	// CauseFetch is the whole off-chip fetch, from the L1-miss point to
	// data ready.
	CauseFetch
	// CauseWalk is the serial lower on-chip confirmation walk (L2+LLC).
	CauseWalk
	// CauseCtrHit / CauseCtrMiss is the counter pipeline: the histogram
	// value is the counter access latency, the tree node spans ctr+OTP.
	CauseCtrHit
	CauseCtrMiss
	// CauseMTWalk is one Merkle-path verification; Value (and the
	// histogram) is the number of tree nodes fetched from DRAM.
	CauseMTWalk
	// CauseMACFetch is a MAC-block DRAM fetch on a MAC-cache miss.
	CauseMACFetch
	// CauseReEnc is a re-encryption storm (a counter overflow); Dur is the
	// DRAM stall booked, Value the lines rewritten.
	CauseReEnc
	// CauseDataDRAM is the demand data read in DRAM.
	CauseDataDRAM

	numSpanCauses
)

var spanCauseNames = [numSpanCauses]string{
	"access", "level_miss", "fetch", "walk", "ctr_hit", "ctr_miss",
	"mt_walk", "mac_fetch", "reenc_stall", "data_dram",
}

// String returns the cause's stable snake_case name (used in JSON, metric
// names and the stats table).
func (c SpanCause) String() string {
	if int(c) < len(spanCauseNames) {
		return spanCauseNames[c]
	}
	return "unknown"
}

// MarshalText makes causes render as names in JSON span trees.
func (c SpanCause) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses a cause name back (round-tripping /spans documents).
func (c *SpanCause) UnmarshalText(text []byte) error {
	for i, name := range spanCauseNames {
		if name == string(text) {
			*c = SpanCause(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown span cause %q", text)
}

// Span is one node of an access span tree. Start is in cycles relative to
// the access's own t0 (the moment the core issued it); Dur is the node's
// extent, Value a cause-specific annotation (MT nodes fetched, retry count,
// re-encrypted lines).
type Span struct {
	Cause    SpanCause `json:"cause"`
	Label    string    `json:"label,omitempty"`
	Start    uint64    `json:"start"`
	Dur      uint64    `json:"dur"`
	Value    uint64    `json:"value,omitempty"`
	Children []Span    `json:"children,omitempty"`
}

// AccessSpan is one sampled access with its full span tree.
type AccessSpan struct {
	// Index is the access's position in the run's global access stream
	// (0-based) — the deterministic sampling key.
	Index uint64 `json:"access"`
	Core  int    `json:"core"`
	Line  uint64 `json:"line"`
	// Total is the access's critical-path latency in cycles.
	Total uint64 `json:"total"`
	Root  Span   `json:"root"`
}

// TailStat is one cause's distribution summary.
type TailStat struct {
	Cause string  `json:"cause"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Max   uint64  `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// TailReport is the Results.Tail block: per-cause latency distributions
// condensed to percentiles. Units are cycles except mt_walk (nodes fetched)
// and the Value annotations.
type TailReport struct {
	// SampleEvery is the span-tree sampling stride (1 in N accesses);
	// the histograms behind the percentiles see every occurrence.
	SampleEvery uint64 `json:"sample_every"`
	// Sampled counts the span trees built.
	Sampled uint64     `json:"sampled"`
	Causes  []TailStat `json:"causes"`
}

// Stat returns the named cause's entry (nil when absent).
func (t *TailReport) Stat(cause string) *TailStat {
	if t == nil {
		return nil
	}
	for i := range t.Causes {
		if t.Causes[i].Cause == cause {
			return &t.Causes[i]
		}
	}
	return nil
}

// SpanRecorder samples access span trees and accumulates per-cause latency
// histograms. It is single-writer (the simulation goroutine); the top-K
// reservoir is mutex-guarded so the obs plane can snapshot exemplars from a
// live run, and the histograms follow the registry's torn-read scrape
// contract (fixed arrays of monotone uint64s, no pointers).
type SpanRecorder struct {
	every uint64
	topK  int

	hists   [numSpanCauses]Histogram
	sampled uint64

	// levelNames and levelLats describe the on-chip hierarchy, top first
	// (see SetLevels).
	levelNames []string
	levelLats  []uint64

	// cur is the in-flight sampled access (nil between samples); pending
	// collects engine-side notes until NoteFetch assembles the fetch node.
	cur     *AccessSpan
	pending []Span

	mu  sync.Mutex
	top spanHeap // min-heap on Total: the slowest K sampled accesses
}

// NewSpanRecorder samples a full span tree for 1 in every `every` accesses
// (the first access of the run is always sampled) and keeps the slowest
// topK trees. every must be ≥ 1 and topK ≥ 1.
func NewSpanRecorder(every uint64, topK int) *SpanRecorder {
	if every == 0 {
		every = 1
	}
	if topK < 1 {
		topK = 1
	}
	return &SpanRecorder{every: every, topK: topK}
}

// SampleEvery returns the configured sampling stride.
func (r *SpanRecorder) SampleEvery() uint64 { return r.every }

// Sampled counts the span trees built so far.
func (r *SpanRecorder) Sampled() uint64 { return r.sampled }

// MaybeBegin opens a span tree when the access index lands on the sampling
// grid (index % every == 0). Index is the 0-based global access number, so
// sampling is a pure function of the access stream — reruns sample the
// same accesses.
func (r *SpanRecorder) MaybeBegin(index uint64, core int, line uint64) {
	if index%r.every != 0 {
		return
	}
	r.sampled++
	r.cur = &AccessSpan{Index: index, Core: core, Line: line}
	r.pending = r.pending[:0]
}

// SetLevels names the on-chip hierarchy (top first) and its per-level
// lookup latencies, the geometry LevelMisses lays out. The simulator calls
// it when the recorder is attached; the recorder keeps both slices.
func (r *SpanRecorder) SetLevels(names []string, lats []uint64) {
	r.levelNames, r.levelLats = names, lats
}

// LevelMisses records that the access missed the top n on-chip levels: a
// sampled access gets one child span per missed level, laid end to end from
// its t0. No histogram observes them — per-level miss latencies are config
// constants.
func (r *SpanRecorder) LevelMisses(n int) {
	if r.cur == nil {
		return
	}
	var start uint64
	for i := 0; i < n; i++ {
		r.cur.Root.Children = append(r.cur.Root.Children,
			Span{Cause: CauseLevelMiss, Label: r.levelNames[i], Start: start, Dur: r.levelLats[i]})
		start += r.levelLats[i]
	}
}

// Note records one engine-side event: the cause's histogram always observes
// it (dur, except mt_walk which observes value), and when an access is
// being sampled the event is queued as a pending child for the next
// NoteFetch assembly. Counter hit/miss notes feed the histogram only — the
// tree's counter node is synthesised from the fetch-path geometry, which
// also carries the OTP cost.
func (r *SpanRecorder) Note(cause SpanCause, dur, value uint64) {
	obs := dur
	if cause == CauseMTWalk {
		obs = value
	}
	r.hists[cause].Observe(obs)
	if r.cur == nil || cause == CauseCtrHit || cause == CauseCtrMiss {
		return
	}
	r.pending = append(r.pending, Span{Cause: cause, Dur: dur, Value: value})
}

// NoteFetch records the resolved off-chip fetch: the walk/data/fetch
// histograms observe the chain lengths, and a sampled access gets its fetch
// node assembled — walk, counter and data children from the path geometry
// (starts relative to the access's t0; `start` is the L1 lookup cost) plus
// the pending engine notes. A leading MT walk can only have come from the
// counter chain (its verification concludes a counter miss), so it nests
// under the counter node; everything else attaches to the fetch node in
// event order.
func (r *SpanRecorder) NoteFetch(start, walkLat, ctrStart, ctrLat, dataStart, dataLat, end uint64,
	secure, ctrHit, predictedOff bool) {
	r.hists[CauseWalk].Observe(walkLat)
	r.hists[CauseDataDRAM].Observe(dataLat)
	r.hists[CauseFetch].Observe(end)
	if r.cur == nil {
		return
	}
	fetch := Span{Cause: CauseFetch, Start: start, Dur: end}
	fetch.Children = append(fetch.Children,
		Span{Cause: CauseWalk, Label: "l2+llc walk", Start: start, Dur: walkLat})
	pending := r.pending
	if secure {
		cause := CauseCtrMiss
		if ctrHit {
			cause = CauseCtrHit
		}
		ctr := Span{Cause: cause, Label: "ctr+otp", Start: start + ctrStart, Dur: ctrLat}
		if !ctrHit && len(pending) > 0 && pending[0].Cause == CauseMTWalk {
			ctr.Children = append(ctr.Children, pending[0])
			pending = pending[1:]
		}
		fetch.Children = append(fetch.Children, ctr)
	}
	dataLabel := "dram"
	if predictedOff {
		dataLabel = "dram (speculative)"
	}
	fetch.Children = append(fetch.Children,
		Span{Cause: CauseDataDRAM, Label: dataLabel, Start: start + dataStart, Dur: dataLat})
	fetch.Children = append(fetch.Children, pending...)
	r.pending = r.pending[:0]
	r.cur.Root.Children = append(r.cur.Root.Children, fetch)
}

// EndAccess closes the access: the access-latency histogram observes every
// access, and a sampled access's finished tree enters the top-K reservoir.
func (r *SpanRecorder) EndAccess(lat uint64) {
	r.hists[CauseAccess].Observe(lat)
	if r.cur == nil {
		return
	}
	a := r.cur
	r.cur = nil
	r.pending = r.pending[:0]
	a.Total = lat
	a.Root.Cause = CauseAccess
	a.Root.Dur = lat
	r.mu.Lock()
	if len(r.top) < r.topK {
		heap.Push(&r.top, a)
	} else if a.Total > r.top[0].Total {
		r.top[0] = a
		heap.Fix(&r.top, 0)
	}
	r.mu.Unlock()
}

// TopSpans returns the slowest sampled accesses, slowest first. Safe to
// call from another goroutine while the run executes.
func (r *SpanRecorder) TopSpans() []AccessSpan {
	r.mu.Lock()
	out := make([]AccessSpan, len(r.top))
	for i, a := range r.top {
		out[i] = *a
	}
	r.mu.Unlock()
	// Sort slowest-first, breaking latency ties by access index so the
	// exemplar order is deterministic.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j-1], out[j]); j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func less(a, b AccessSpan) bool {
	if a.Total != b.Total {
		return a.Total < b.Total
	}
	return a.Index > b.Index
}

// Report condenses the per-cause histograms into the Results.Tail block.
// Causes nothing observed are omitted.
func (r *SpanRecorder) Report() *TailReport {
	rep := &TailReport{SampleEvery: r.every, Sampled: r.sampled}
	for c := SpanCause(0); c < numSpanCauses; c++ {
		h := &r.hists[c]
		if h.Count() == 0 {
			continue
		}
		rep.Causes = append(rep.Causes, TailStat{
			Cause: c.String(),
			Count: h.Count(),
			Mean:  h.Mean(),
			Max:   h.Max(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
			P999:  h.Quantile(0.999),
		})
	}
	return rep
}

// Hist exposes the cause's histogram (tests and metric registration).
func (r *SpanRecorder) Hist(c SpanCause) *Histogram { return &r.hists[c] }

// RegisterMetrics registers the recorder's per-cause histograms and the
// sampled-tree counter under the scope (conventionally "span"), so the
// distributions ride the interval sampler and /metrics like every other
// metric. Level-miss durations are config constants and are skipped.
func (r *SpanRecorder) RegisterMetrics(s *Scope) {
	s.Counter("sampled", &r.sampled)
	for c := SpanCause(0); c < numSpanCauses; c++ {
		if c == CauseLevelMiss {
			continue
		}
		s.HistogramVar(c.String(), &r.hists[c])
	}
}

// spanHeap is a min-heap of sampled accesses keyed on Total (ties broken
// toward evicting the later access), so the root is always the cheapest
// exemplar to displace.
type spanHeap []*AccessSpan

func (h spanHeap) Len() int { return len(h) }
func (h spanHeap) Less(i, j int) bool {
	if h[i].Total != h[j].Total {
		return h[i].Total < h[j].Total
	}
	return h[i].Index > h[j].Index
}
func (h spanHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *spanHeap) Push(x any)   { *h = append(*h, x.(*AccessSpan)) }
func (h *spanHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

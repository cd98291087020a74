package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// sampleBits sets the access sample of the traced run: one access in
// 1<<sampleBits (128) gets a span tree, and as many others get their step
// timed as a whole. A clock pair costs as much as an L1 probe, so timing
// every access would swamp what it measures.
const sampleBits = 7

// sample assigns access i to one of 1<<sampleBits buckets by a
// deterministic hash of the index, rather than by i modulo 128, which would
// always land on the first access of a thread's interleaving chunk. Bucket
// spanBucket gets the span tree; bucket bareBucket only the step timing,
// which measures what recording the tree costs.
func sample(i uint64) uint64 { return (i * 0x9E3779B97F4A7C15) >> (64 - sampleBits) }

const (
	spanBucket = 0
	bareBucket = 1
)

// driveBlock is the decode-ahead block of the benchmark's driving loops,
// the same as System.RunContext's.
const driveBlock = 256

// spanName identifies the layer call a span covers.
type spanName uint8

const (
	spanStep spanName = iota // one whole access: sim.System.Step
	spanL1Probe
	spanL2Probe
	spanLLCProbe
	spanL2Writeback
	spanLLCWriteback
	spanSecmemWriteback
	spanCtrAccess
	spanDataDRAM
	spanMACAccess
	spanWastedFetch
	spanDataPredict
	spanDataLearn
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"sim.step", "cache.l1.probe", "cache.l2.probe", "cache.llc.probe",
	"cache.l2.writeback", "cache.llc.writeback", "secmem.writeback",
	"secmem.ctr_access", "secmem.data_dram", "secmem.mac_access",
	"secmem.wasted_fetch", "core.data_predict", "core.data_learn",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed layer call of a sampled access. Start and End are
// clock ticks; Parent indexes the tracer's spans (-1 for an access's root).
// All spans of one access share Access.
type span struct {
	Name   spanName
	Cell   int32
	Parent int32
	Access uint64
	Start  int64
	End    int64
}

// maxSpans bounds the spans of one access: a step, three probes, the
// predictor's two calls, the counter, data, MAC and wasted-fetch calls, and
// up to six writebacks cascading from the three probes.
const maxSpans = 24

// tracer records spans in memory. A sampled access is recorded into cur,
// which startAccess touches first so the recording does not miss in the
// host caches inside the spans, and moved to spans when it ends. For
// accesses that are not sampled, begin and end cost one branch.
type tracer struct {
	base   int64   // ticks at creation
	perNs  float64 // ticks per nanosecond
	window float64 // ns an empty span measures; subtracted from every span
	cell   int32
	spans  []span

	on     bool
	access uint64
	cur    [maxSpans]span
	n      int32
	stack  [maxSpans]int32
	depth  int32
}

// newTracer measures the tick rate against the wall clock and calibrates
// the empty-span window.
func newTracer() *tracer {
	t0, k0 := time.Now(), ticks()
	time.Sleep(20 * time.Millisecond)
	k1, d := ticks(), time.Since(t0)
	t := &tracer{base: k0, perNs: float64(k1-k0) / float64(d.Nanoseconds())}
	t.window = t.calibrate()
	return t
}

// startAccess begins an access; spans are recorded only when on is set.
func (t *tracer) startAccess(access uint64, on bool) {
	t.on, t.access = on, access
	if on {
		t.cur = [maxSpans]span{}
		t.stack = [maxSpans]int32{}
		t.n, t.depth = 0, 0
	}
}

// finishAccess moves a sampled access's spans to the record.
func (t *tracer) finishAccess() {
	if !t.on {
		return
	}
	off := int32(len(t.spans))
	for _, s := range t.cur[:t.n] {
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
	t.on = false
}

// begin opens a span and returns its handle for end; -1 when the access is
// not recorded. begin and end inline to a branch on that path.
func (t *tracer) begin(n spanName) int32 {
	if !t.on {
		return -1
	}
	return t.open(n)
}

func (t *tracer) open(n spanName) int32 {
	i := t.n
	t.n++
	parent := int32(-1)
	if t.depth > 0 {
		parent = t.stack[t.depth-1]
	}
	t.stack[t.depth] = i
	t.depth++
	t.cur[i] = span{Name: n, Cell: t.cell, Parent: parent, Access: t.access}
	t.cur[i].Start = ticks()
	return i
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.close(i)
	}
}

func (t *tracer) close(i int32) {
	t.cur[i].End = ticks()
	t.depth--
}

// ns converts a tick count to nanoseconds.
func (t *tracer) ns(ticks int64) float64 { return float64(ticks) / t.perNs }

// calibrate is the median of what an empty span measures, on a scratch
// tracer with t's clock; the median ignores interruptions.
func (t *tracer) calibrate() float64 {
	const n = 100_000
	c := &tracer{perNs: t.perNs}
	window := make([]float64, n)
	for i := range window {
		c.startAccess(0, true)
		c.end(c.begin(spanStep))
		window[i] = c.ns(c.cur[0].End - c.cur[0].Start)
	}
	return median(window)
}

// layerTimes is the self time and call count of each span name.
type layerTimes struct {
	selfNs  [numSpanNames]float64
	calls   [numSpanNames]uint64
	sampled uint64 // sampled accesses counted
}

// interruptedNs is the span-tree duration beyond which a sampled access is
// taken to have been descheduled by the OS or the Go scheduler; such
// accesses are left out of the layer times (a step's p99 is under 2µs).
const interruptedNs = 50_000

// selfTimes folds the spans from index off on into per-name self time: a
// span's duration minus the tracer's window, minus what each child took
// inside it, which is the child's duration plus the part of its recording
// cost outside its own window. That part is measured in place rather than
// in a loop, where back-to-back clock reads cost more than they do between
// simulator calls: bareStepNs is the mean step of the bare-span sample, so
// what a span tree adds to a step, spread over its child spans, is what
// recording a child costs.
func (t *tracer) selfTimes(off int32, bareStepNs float64) layerTimes {
	spans := t.spans[off:]
	// An access's spans are contiguous, root first; kept[i] says whether
	// span i belongs to an access that was not interrupted.
	kept := make([]bool, len(spans))
	var rootNs, accesses, children float64
	for i, s := range spans {
		switch {
		case s.Parent < 0:
			kept[i] = t.ns(s.End-s.Start) <= interruptedNs
			if kept[i] {
				rootNs += t.ns(s.End - s.Start)
				accesses++
			}
		default:
			kept[i] = kept[s.Parent-off]
			if kept[i] {
				children++
			}
		}
	}
	outside := max(0, ratio(rootNs-accesses*bareStepNs, children)-t.window)

	var lt layerTimes
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent-off] += t.ns(s.End-s.Start) + outside
		}
	}
	for i, s := range spans {
		if !kept[i] {
			continue
		}
		if s.Parent < 0 {
			lt.sampled++
		}
		lt.selfNs[s.Name] += t.ns(s.End-s.Start) - t.window - child[i]
		lt.calls[s.Name]++
	}
	return lt
}

func (lt layerTimes) perCall(names ...spanName) float64 {
	var ns float64
	var calls uint64
	for _, n := range names {
		ns += lt.selfNs[n]
		calls += lt.calls[n]
	}
	return ratio(ns, float64(calls))
}

func (lt layerTimes) perAccess(names ...spanName) float64 {
	var ns float64
	for _, n := range names {
		ns += lt.selfNs[n]
	}
	return ratio(ns, float64(lt.sampled))
}

func (lt layerTimes) callsPerAccess(names ...spanName) float64 {
	var calls uint64
	for _, n := range names {
		calls += lt.calls[n]
	}
	return ratio(float64(calls), float64(lt.sampled))
}

// writeSpans writes the spans as JSON lines, in start order (the order
// begin recorded them), with times in nanoseconds since the tracer started
// and each span's cell named by its label.
func (t *tracer) writeSpans(path string, cells []string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			ID     int    `json:"id"`
			Parent int32  `json:"parent"`
			Access uint64 `json:"access"`
			Cell   string `json:"cell"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, s.Parent, s.Access, cells[s.Cell], s.Name.String(),
			int64(t.ns(s.Start - t.base)), int64(t.ns(s.End - t.base))}); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

package obs

import (
	"net/http"
	"sort"
	"sync"

	"cosmos/internal/telemetry"
)

// This file is the tail-latency part of the plane: /spans serves the top-K
// slowest access span trees and per-cause percentiles of every attached
// recorder. It reads live state — recorders are safe to snapshot while the
// run executes — so a hung or slow campaign can be diagnosed in place.

// SpanHub collects the span recorders of concurrently executing runs, keyed
// by run label, for the /spans endpoint. The zero value is unusable; use
// NewSpanHub. Register/Drop are cheap and may be called per run.
type SpanHub struct {
	mu   sync.Mutex
	recs map[string]*telemetry.SpanRecorder
}

// NewSpanHub creates an empty hub.
func NewSpanHub() *SpanHub { return &SpanHub{recs: make(map[string]*telemetry.SpanRecorder)} }

// Register attaches a run's recorder under its label, replacing any
// previous recorder with the same label (re-runs of one cell). A nil hub
// or recorder is a no-op.
func (h *SpanHub) Register(label string, rec *telemetry.SpanRecorder) {
	if h == nil || rec == nil {
		return
	}
	h.mu.Lock()
	h.recs[label] = rec
	h.mu.Unlock()
}

// Drop removes a run's recorder (finished runs keep serving until dropped;
// the cmds typically keep them for post-run inspection).
func (h *SpanHub) Drop(label string) {
	h.mu.Lock()
	delete(h.recs, label)
	h.mu.Unlock()
}

// RunSpans is one run's entry in the /spans document.
type RunSpans struct {
	Run  string                 `json:"run"`
	Tail *telemetry.TailReport  `json:"tail"`
	Top  []telemetry.AccessSpan `json:"top"`
}

// Snapshot renders every registered recorder, sorted by label.
func (h *SpanHub) Snapshot() []RunSpans {
	h.mu.Lock()
	labels := make([]string, 0, len(h.recs))
	recs := make([]*telemetry.SpanRecorder, 0, len(h.recs))
	for l, r := range h.recs {
		labels = append(labels, l)
		recs = append(recs, r)
	}
	h.mu.Unlock()
	out := make([]RunSpans, len(labels))
	for i := range labels {
		out[i] = RunSpans{Run: labels[i], Tail: recs[i].Report(), Top: recs[i].TopSpans()}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Run < out[j].Run })
	return out
}

func (s *Server) handleSpans(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Spans == nil {
		writeJSON(w, []RunSpans{})
		return
	}
	writeJSON(w, s.cfg.Spans.Snapshot())
}

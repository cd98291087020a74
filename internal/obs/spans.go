package obs

import (
	"log/slog"
	"net/http"
	"sort"
	"sync"

	"cosmos/internal/telemetry"
	"cosmos/internal/watch"
)

// This file is the tail-latency half of the plane: /spans serves the top-K
// slowest access span trees and per-cause percentiles of every attached
// recorder, /phases the watchdog's detected phase segments and anomalies.
// Both read live state — recorders and dogs are safe to snapshot while the
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

// WatchHub collects the watchdogs of concurrently executing runs for the
// /phases endpoint, keyed by run label.
type WatchHub struct {
	mu   sync.Mutex
	dogs map[string]*watch.Dog
}

// NewWatchHub creates an empty hub.
func NewWatchHub() *WatchHub { return &WatchHub{dogs: make(map[string]*watch.Dog)} }

// Register attaches a run's watchdog under its label; a nil hub or
// watchdog is a no-op.
func (h *WatchHub) Register(label string, d *watch.Dog) {
	if h == nil || d == nil {
		return
	}
	h.mu.Lock()
	h.dogs[label] = d
	h.mu.Unlock()
}

// Drop removes a run's watchdog.
func (h *WatchHub) Drop(label string) {
	h.mu.Lock()
	delete(h.dogs, label)
	h.mu.Unlock()
}

// RunPhases is one run's entry in the /phases document.
type RunPhases struct {
	Run string `json:"run"`
	watch.Snapshot
}

// Snapshot renders every registered watchdog, sorted by label.
func (h *WatchHub) Snapshot() []RunPhases {
	h.mu.Lock()
	labels := make([]string, 0, len(h.dogs))
	dogs := make([]*watch.Dog, 0, len(h.dogs))
	for l, d := range h.dogs {
		labels = append(labels, l)
		dogs = append(dogs, d)
	}
	h.mu.Unlock()
	out := make([]RunPhases, len(labels))
	for i := range labels {
		out[i] = RunPhases{Run: labels[i], Snapshot: dogs[i].Snapshot()}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Run < out[j].Run })
	return out
}

// WatchNotifier builds a watch.Config Notify hook that logs each detection
// and, when a broker is attached, publishes it as one "phase" or "anomaly"
// SSE event wrapping the event with the run's label. Either logger or
// broker may be nil.
func WatchNotifier(logger *slog.Logger, b *Broker, label string) func(watch.Event) {
	return func(ev watch.Event) {
		if logger != nil {
			logger.Warn("watchdog detection",
				"run", label, "kind", ev.Kind, "signal", ev.Signal,
				"interval", ev.Interval, "value", ev.Value,
				"mean", ev.Mean, "z", ev.Z, "phase", ev.Phase)
		}
		if b != nil {
			b.Publish(ev.Kind, struct {
				Run   string      `json:"run"`
				Event watch.Event `json:"event"`
			}{label, ev})
		}
	}
}

func (s *Server) handleSpans(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Spans == nil {
		writeJSON(w, []RunSpans{})
		return
	}
	writeJSON(w, s.cfg.Spans.Snapshot())
}

func (s *Server) handlePhases(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Watch == nil {
		writeJSON(w, []RunPhases{})
		return
	}
	writeJSON(w, s.cfg.Watch.Snapshot())
}

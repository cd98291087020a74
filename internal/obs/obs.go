// Package obs is the opt-in live observability plane of the COSMOS cmds:
// one HTTP server exposing the state of a running simulation or campaign
// while it runs, instead of only after it exits.
//
// Endpoints:
//
//	/metrics      Prometheus text exposition bridged from the telemetry
//	              registry (plus process-level gauges)
//	/healthz      liveness: {"status":"ok", ...} — the process is up
//	/readyz       readiness: 200 once the component can serve (journal
//	              replayed, fleet joined), 503 with a reason before that
//	/buildz       build/runtime identity: go version, GOOS/GOARCH, VCS
//	              revision, GOMAXPROCS, pid, uptime
//	/runs         live JSON of the campaign run table (per-cell status,
//	              queue-wait/exec times, source counts, worker occupancy,
//	              ETA)
//	/events       SSE stream of run lifecycle transitions and interval-
//	              sampler snapshots
//	/spans        top-K slowest access span trees plus per-cause latency
//	              percentiles of every attached span recorder
//	/debug/pprof  the standard profiling endpoints
//	/coord/*      when serving a distributed campaign, the lease fabric
//	              (mounted via Config.Attach; see internal/coord)
//
// The plane is strictly opt-in (the cmds only start it when -listen is
// set) and additive: it reads counters the simulator already maintains, so
// the simulation hot path is untouched and disabled-telemetry runs remain
// allocation-free and bit-identical. See DESIGN.md §8.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"cosmos/internal/telemetry"
)

// Config wires a Server to the process it observes. Every field except
// Component is optional: a nil Registry serves only process metrics, a nil
// Runs serves an empty table, a nil Events serves a stream that only ever
// heartbeats.
type Config struct {
	// Component names the serving cmd ("cosmos-bench") in /healthz and
	// /buildz.
	Component string
	// Registry is the telemetry metric set served on /metrics.
	Registry *telemetry.Registry
	// Runs is the live campaign run table served on /runs.
	Runs *RunTable
	// Events is the broker behind /events.
	Events *Broker
	// Spans is the span-recorder hub served on /spans.
	Spans *SpanHub
	// Logger defaults to slog.Default().
	Logger *slog.Logger
	// Heartbeat is the SSE keep-alive comment cadence (default 15s).
	Heartbeat time.Duration
	// Ready gates /readyz: nil means always ready; otherwise a false
	// return (with a reason) serves 503 until the component reports ready
	// (a coordinator replaying its journal, a worker not yet joined).
	// /healthz stays pure liveness either way.
	Ready func() (bool, string)
	// Coord, when set, is merged into /runs as a "coord" object so one
	// endpoint shows the whole distributed campaign (queue depths, fleet
	// occupancy, lease ages, re-lease counts).
	Coord func() any
	// Attach, when set, registers extra routes on the server mux before it
	// starts (the coordinator mounts /coord/* here without obs importing
	// it).
	Attach func(*http.ServeMux)
}

// Server is the observability-plane HTTP server.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	srv   *http.Server
	ln    net.Listener
	start time.Time
}

// NewServer builds the server and its routes without listening yet.
func NewServer(cfg Config) *Server {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 15 * time.Second
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/buildz", s.handleBuildz)
	s.mux.HandleFunc("/runs", s.handleRuns)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/spans", s.handleSpans)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if cfg.Attach != nil {
		cfg.Attach(s.mux)
	}
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	return s
}

// Handler exposes the route mux (tests drive it through httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (":0" picks a free port) and serves in the
// background until Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.ln = ln
	go func() {
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.cfg.Logger.Error("observability server failed", "err", err)
		}
	}()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns a curl-able base URL for the bound address.
func (s *Server) URL() string {
	addr := s.Addr()
	if addr == "" {
		return ""
	}
	if host, port, err := net.SplitHostPort(addr); err == nil {
		if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
			return "http://localhost:" + port
		}
	}
	return "http://" + addr
}

// Shutdown stops the plane gracefully: the event broker closes first (so
// open SSE streams finish their responses), then the HTTP server drains
// within ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.cfg.Events != nil {
		s.cfg.Events.Close()
	}
	if s.ln == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", MetricsContentType)
	if s.cfg.Registry != nil {
		if err := WriteMetrics(w, s.cfg.Registry); err != nil {
			return
		}
	}
	writeProcessMetrics(w, s.start)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"status":    "ok",
		"component": s.cfg.Component,
		"uptime_s":  time.Since(s.start).Seconds(),
	})
}

// handleReadyz is readiness, distinct from /healthz liveness: a live
// process may still be warming up (journal replay, fleet join). Load
// balancers and smoke tests poll this before sending work.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready, reason := true, ""
	if s.cfg.Ready != nil {
		ready, reason = s.cfg.Ready()
	}
	if !ready {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{
			"status":    "not ready",
			"reason":    reason,
			"component": s.cfg.Component,
		})
		return
	}
	writeJSON(w, map[string]any{
		"status":    "ready",
		"component": s.cfg.Component,
		"uptime_s":  time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleBuildz(w http.ResponseWriter, _ *http.Request) {
	info := map[string]any{
		"component":  s.cfg.Component,
		"go":         runtime.Version(),
		"os":         runtime.GOOS,
		"arch":       runtime.GOARCH,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"pid":        os.Getpid(),
		"uptime_s":   time.Since(s.start).Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info["module"] = bi.Main.Path
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision", "vcs.time", "vcs.modified":
				info[kv.Key] = kv.Value
			}
		}
	}
	writeJSON(w, info)
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	snap := Snapshot{Sources: map[string]int{}, Cells: []Cell{}}
	if s.cfg.Runs != nil {
		snap = s.cfg.Runs.Snapshot()
	}
	if s.cfg.Coord == nil {
		writeJSON(w, snap)
		return
	}
	// Embed the coordinator's fabric view alongside the run table so one
	// endpoint covers the whole distributed campaign.
	writeJSON(w, struct {
		Snapshot
		Coord any `json:"coord"`
	}{Snapshot: snap, Coord: s.cfg.Coord()})
}

// handleEvents serves the SSE stream: every broker event becomes one
// `id/event/data` frame, with comment heartbeats in between. The response
// ends when the client goes away or the broker closes (server shutdown) —
// the stream always terminates cleanly mid-campaign kill.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fmt.Fprint(w, "retry: 2000\n\n")
	fl.Flush()

	if s.cfg.Events == nil {
		<-r.Context().Done()
		return
	}
	ch, cancel := s.cfg.Events.Subscribe()
	defer cancel()
	heartbeat := time.NewTicker(s.cfg.Heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // broker closed: graceful end of stream
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, ev.Data)
			fl.Flush()
		case <-heartbeat.C:
			fmt.Fprint(w, ": keep-alive\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

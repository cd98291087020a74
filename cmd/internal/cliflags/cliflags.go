// Package cliflags centralises the flag sets every cosmos command used to
// copy-paste: the observability plane trio (-listen, -log-format,
// -log-level), the learned-policy zoo (-policy, -policy-role,
// -list-policies) and the campaign timeout. Each Register* call adds one
// group to a FlagSet; a command picks exactly the groups it supports, so
// flag names, defaults and help text stay identical across binaries by
// construction. Obs.Serve and RunSinks are likewise the one place every
// command starts the plane and attaches per-run telemetry.
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cosmos/internal/core"
	"cosmos/internal/obs"
	"cosmos/internal/rl"
	"cosmos/internal/telemetry"
)

// Obs holds the observability-plane flags shared by every command.
type Obs struct {
	Listen    string
	LogFormat string
	LogLevel  string
}

// RegisterObs adds -listen, -log-format and -log-level to fs.
func RegisterObs(fs *flag.FlagSet) *Obs {
	o := &Obs{}
	fs.StringVar(&o.Listen, "listen", "",
		"serve the observability plane (/metrics, /runs, /events, /healthz, /debug/pprof) on this address (e.g. localhost:9090, :0)")
	fs.StringVar(&o.LogFormat, "log-format", "text", "log output format: text | json")
	fs.StringVar(&o.LogLevel, "log-level", "info", "minimum log level: debug | info | warn | error")
	return o
}

// Logger builds the command's structured logger from the parsed log flags.
func (o *Obs) Logger(component string) (*slog.Logger, error) {
	return obs.SetupLogger(component, o.LogFormat, o.LogLevel)
}

// Spans holds the span-tracing flags.
type Spans struct {
	SampleEvery uint64
	TopK        int
}

// RegisterSpans adds -span-sample and -span-topk to fs.
func RegisterSpans(fs *flag.FlagSet) *Spans {
	s := &Spans{}
	fs.Uint64Var(&s.SampleEvery, "span-sample", 0,
		"build a full span tree for 1 in this many accesses and serve the slowest exemplars on /spans (0 = off; histogram tails are collected either way once enabled)")
	fs.IntVar(&s.TopK, "span-topk", 16, "keep this many slowest span-tree exemplars (also the -trace-out bound; at least 1)")
	return s
}

// Enabled reports whether span tracing is on.
func (s *Spans) Enabled() bool { return s.SampleEvery > 0 }

// Validate rejects span settings the recorder cannot honour: a -span-topk
// below 1, and a -trace-out (traceOut, the command's own flag) without
// -span-sample, since the trace is exported from the sampled span trees.
// Commands call it before any simulation starts.
func (s *Spans) Validate(traceOut string) error {
	if s.TopK < 1 {
		return fmt.Errorf("-span-topk %d must be at least 1", s.TopK)
	}
	if traceOut != "" && !s.Enabled() {
		return fmt.Errorf("-trace-out exports sampled span trees; it needs -span-sample (1 records every access)")
	}
	return nil
}

// Recorder builds the configured span recorder, or nil when tracing is off
// — the nil keeps Step allocation-free and Results bit-identical.
func (s *Spans) Recorder() *telemetry.SpanRecorder {
	if !s.Enabled() {
		return nil
	}
	return telemetry.NewSpanRecorder(s.SampleEvery, s.TopK)
}

// Policy holds the learned-policy zoo flags.
type Policy struct {
	Kind string
	Role string
	List bool
}

// RegisterPolicy adds -policy, -policy-role and -list-policies to fs.
func RegisterPolicy(fs *flag.FlagSet) *Policy {
	p := &Policy{}
	fs.StringVar(&p.Kind, "policy", "",
		"predictor policy kind ("+strings.Join(rl.PolicyKinds(), ", ")+"; empty = the design's tabular default)")
	fs.StringVar(&p.Role, "policy-role", "both",
		"predictor role the -policy selection applies to: data | ctr | both")
	fs.BoolVar(&p.List, "list-policies", false, "list the available policy kinds and exit")
	return p
}

// ListPolicies writes the -list-policies table.
func ListPolicies(w io.Writer) {
	fmt.Fprintln(w, "available policy kinds:")
	for _, d := range rl.PolicyKindDescriptions() {
		fmt.Fprintf(w, "  %-11s %s\n", d.Kind, d.Desc)
	}
}

// Apply resolves the parsed policy flags into the Params' per-role policy
// specs. An unknown kind or role returns an error naming the valid
// choices, and -policy-role data or ctr without -policy one naming both
// flags. No flags set leaves the Params untouched, so the nil-spec
// hash-stability guarantee holds for every policy-free invocation.
func (p *Policy) Apply(params *core.Params) error {
	data, ctr, err := p.Specs()
	if err != nil {
		return err
	}
	if data != nil {
		params.DataPolicy = data
	}
	if ctr != nil {
		params.CtrPolicy = ctr
	}
	return nil
}

// Specs resolves the parsed policy flags into per-role policy specs (nil =
// that role keeps the design default) — the form experiments.WithPolicy
// consumes. Errors mirror Apply's; a -policy-role other than the default
// without -policy is an error too, since it would select nothing.
func (p *Policy) Specs() (data, ctr *rl.PolicySpec, err error) {
	var dataRole, ctrRole bool
	switch p.Role {
	case "both":
		dataRole, ctrRole = true, true
	case "data":
		dataRole = true
	case "ctr":
		ctrRole = true
	default:
		return nil, nil, fmt.Errorf("cliflags: unknown policy role %q (valid: data, ctr, both)", p.Role)
	}
	if p.Kind == "" {
		if p.Role != "both" {
			return nil, nil, fmt.Errorf("cliflags: -policy-role %s needs -policy", p.Role)
		}
		return nil, nil, nil
	}
	spec := &rl.PolicySpec{Kind: p.Kind}
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	if dataRole {
		data = spec
	}
	if ctrRole {
		ctr = spec
	}
	return data, ctr, nil
}

// Coord holds the distributed-campaign flags: one binary is either a
// coordinator (-serve), a worker (-join), or a plain single-node campaign
// (neither).
type Coord struct {
	Serve      string
	Join       string
	LeaseTTL   time.Duration
	WorkerName string
	PollIvl    time.Duration
	Reconnect  time.Duration
}

// RegisterCoord adds the -serve / -join flag group to fs.
func RegisterCoord(fs *flag.FlagSet) *Coord {
	c := &Coord{}
	fs.StringVar(&c.Serve, "serve", "",
		"run as campaign coordinator: serve the lease-based work queue (and the observability plane) on this address; requires -results-dir")
	fs.StringVar(&c.Join, "join", "",
		"run as campaign worker: pull leases from the coordinator at this base URL (e.g. http://host:9090) and stream results back")
	fs.DurationVar(&c.LeaseTTL, "lease-ttl", 10*time.Second,
		"coordinator lease time-to-live; a worker missing heartbeats for this long has its cell re-leased")
	fs.StringVar(&c.WorkerName, "worker-name", "",
		"worker identity in leases and the coordinator's /runs (default <hostname>-<pid>)")
	fs.DurationVar(&c.PollIvl, "poll-interval", 250*time.Millisecond,
		"worker sleep between empty lease polls (jittered)")
	fs.DurationVar(&c.Reconnect, "reconnect-budget", 60*time.Second,
		"how long a worker tolerates an unreachable coordinator before exiting with the lost-coordinator code")
	return c
}

// Name resolves the worker identity, defaulting to <hostname>-<pid>.
func (c *Coord) Name() string {
	if c.WorkerName != "" {
		return c.WorkerName
	}
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// RegisterTimeout adds the -timeout flag to fs.
func RegisterTimeout(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("timeout", 0, "abort after this duration (0 = none)")
}

// SignalContext builds the command's root context: SIGINT/SIGTERM cancel
// it (in-flight simulations stop within sim.CancelCheckEvery steps), and a
// positive timeout bounds the whole run. The returned stop releases both.
func SignalContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	tctx, cancel := context.WithTimeout(ctx, timeout)
	return tctx, func() {
		cancel()
		stop()
	}
}

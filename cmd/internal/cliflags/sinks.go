package cliflags

import (
	"cmp"
	"context"
	"errors"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"cosmos/internal/obs"
	"cosmos/internal/sim"
	"cosmos/internal/telemetry"
)

// Serve starts the observability plane on -listen and logs its address;
// with -listen unset it starts nothing. The returned stop, never nil,
// shuts the plane down within 3 s and logs a failed shutdown.
func (o *Obs) Serve(cfg obs.Config) (stop func(), err error) {
	if o.Listen == "" {
		return func() {}, nil
	}
	logger := cmp.Or(cfg.Logger, slog.Default())
	srv := obs.NewServer(cfg)
	if err := srv.Start(o.Listen); err != nil {
		return func() {}, err
	}
	logger.Info("observability plane listening", "addr", srv.URL())
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("observability plane shutdown", "err", err)
		}
	}, nil
}

// RunSinks attaches the telemetry the span, stats and -listen flags ask
// for to each simulation a command executes.
type RunSinks struct {
	Spans    *Spans
	Interval uint64 // -stats-interval
	// The plane's /events and /spans feeds; nil without -listen. The span
	// hub stays empty while -span-sample is off, so /spans serves [].
	Broker  *obs.Broker
	SpanHub *obs.SpanHub
}

// Sinks builds the RunSinks for the parsed flags.
func (o *Obs) Sinks(spans *Spans, interval uint64) *RunSinks {
	rs := &RunSinks{Spans: spans, Interval: interval}
	if o.Listen != "" {
		rs.Broker, rs.SpanHub = obs.NewBroker(), obs.NewSpanHub()
	}
	return rs
}

// Enabled reports whether a run needs Attach at all; without a stats sink,
// the plane or spans it stays bare and bit-identical.
func (rs *RunSinks) Enabled(statsOut string) bool {
	return statsOut != "" || rs.Broker != nil || rs.Spans.Enabled()
}

// Attach wires one run's telemetry into s, whose metrics the caller has
// registered in reg: the span recorder (with its hub), and a sampler
// writing statsPath (CSV for a .csv path, JSONL otherwise) and the broker.
// The sampler exists only with a file or the broker to feed. An empty path
// writes no file; the files are created here, so a bad path fails before
// the run. finish, called once after the run, writes the Chrome trace to
// tracePath, closes the files and returns every sink error, joined.
func (rs *RunSinks) Attach(reg *telemetry.Registry, label string, s *sim.System, statsPath, tracePath string) (finish func() error, err error) {
	if err := rs.Spans.Validate(tracePath); err != nil {
		return nil, err
	}
	rec := rs.Spans.Recorder()
	if rec != nil {
		s.AttachSpans(rec)
		rec.RegisterMetrics(reg.Root().Scope("span"))
		rs.SpanHub.Register(label, rec)
	}
	cfg := telemetry.SamplerConfig{Interval: rs.Interval}

	var files []*os.File // closed by finish, or here when Attach fails
	closeAll := func() (err error) {
		for _, f := range files {
			err = errors.Join(err, f.Close())
		}
		return err
	}
	defer func() {
		if err != nil {
			closeAll()
		}
	}()
	create := func(path string) (f *os.File, err error) {
		if path != "" {
			if f, err = os.Create(path); err == nil {
				files = append(files, f)
			}
		}
		return f, err
	}
	statsFile, err := create(statsPath)
	if err != nil {
		return nil, err
	}
	traceFile, err := create(tracePath)
	if err != nil {
		return nil, err
	}
	switch {
	case statsFile == nil:
	case strings.HasSuffix(statsPath, ".csv"):
		cfg.CSV = statsFile
	default:
		cfg.JSONL = statsFile
	}
	if rs.Broker != nil {
		bw := rs.Broker.SampleWriter(label)
		if cfg.JSONL != nil {
			bw = io.MultiWriter(cfg.JSONL, bw)
		}
		cfg.JSONL = bw
	}
	var sp *telemetry.Sampler
	if cfg.JSONL != nil || cfg.CSV != nil {
		if sp, err = telemetry.NewSampler(reg, cfg); err != nil {
			return nil, err
		}
		s.AttachSampler(sp)
	}

	return func() error {
		var werr error
		if traceFile != nil {
			werr = telemetry.WriteChromeTrace(traceFile, rec.TopSpans())
		}
		if sp != nil {
			werr = errors.Join(werr, sp.Err())
		}
		return errors.Join(werr, closeAll())
	}, nil
}

// Command cosmos-bench regenerates the paper's tables and figures.
//
//	cosmos-bench -exp fig10            # one experiment at full scale
//	cosmos-bench -exp all -scale 0.25  # everything, quarter scale
//	cosmos-bench -list                 # available experiment ids
//
// Runs are memoised within one invocation, so composite sweeps (fig10-14
// share the same simulations) cost each configuration once. Whatever -exp
// selects, every cell its experiments request first runs in parallel on
// -parallel workers; the tables then render in order from the memo. With
// -results-dir every completed simulation is also persisted to disk, so an
// interrupted campaign rerun with the same directory executes only the
// missing cells. SIGINT/SIGTERM (and -timeout) cancel mid-simulation and
// the run drains gracefully, keeping everything finished so far.
//
// With -listen the campaign serves its live observability plane (see
// DESIGN.md §8): /metrics (Prometheus), /runs (per-cell campaign state),
// /events (SSE lifecycle + sampler stream), /healthz, /readyz, /buildz and
// /debug/pprof.
//
// Distributed campaigns (see DESIGN.md §14): -serve turns the process into
// the campaign coordinator (lease-based work queue on the observability
// plane address), -join turns it into a worker pulling leases from a
// coordinator. Determinism makes the distributed table byte-identical to a
// single-node run.
//
// Exit codes: 0 success, 1 campaign error, 2 usage, 3 lost coordinator.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"cosmos/cmd/internal/cliflags"
	"cosmos/internal/coord"
	"cosmos/internal/experiments"
	"cosmos/internal/obs"
	"cosmos/internal/runner"
	"cosmos/internal/sim"
	"cosmos/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp     = flag.String("exp", "all", "experiment id (fig2..fig17, tab1..tab4, abl-*, all)")
		list    = flag.Bool("list", false, "print the available experiment ids and exit")
		scale   = flag.Float64("scale", 1.0, "workload scale factor (1.0 = full reproduction, 0 = smoke)")
		csv     = flag.Bool("csv", false, "emit CSV")
		jsonSum = flag.Bool("json", false, "emit a machine-readable campaign summary (run counts, wall-time phase breakdown, accesses/sec) as JSON on exit")
		out     = flag.String("out", "", "also write each experiment as <out>/<id>.csv")
		par     = flag.Int("parallel", runtime.NumCPU(), "concurrent simulations (worker pool size)")
		results = flag.String("results-dir", "", "persist completed simulations here and resume from it on rerun")

		timeout    = cliflags.RegisterTimeout(flag.CommandLine)
		obsFlags   = cliflags.RegisterObs(flag.CommandLine)
		policy     = cliflags.RegisterPolicy(flag.CommandLine)
		spanFlags  = cliflags.RegisterSpans(flag.CommandLine)
		coordFlags = cliflags.RegisterCoord(flag.CommandLine)

		statsOut   = flag.String("stats-out", "", "write per-interval metric time-series, one <workload>_<design>.jsonl per simulation, into this directory")
		statsIvl   = flag.Uint64("stats-interval", 100_000, "sampling interval in accesses for -stats-out")
		traceOut   = flag.String("trace-out", "", "write each simulation's -span-topk slowest sampled span trees as Chrome trace_event JSON, one <workload>_<design>.trace.json per simulation, into this directory; needs -span-sample")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()

	logger, err := obsFlags.Logger("cosmos-bench")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmos-bench:", err)
		return exitUsage
	}
	if err := spanFlags.Validate(*traceOut); err != nil {
		logger.Error("span flags", "err", err)
		return exitUsage
	}

	if coordFlags.Serve != "" && coordFlags.Join != "" {
		logger.Error("-serve and -join are mutually exclusive")
		return exitUsage
	}
	if coordFlags.Serve != "" {
		if *results == "" {
			logger.Error("-serve requires -results-dir (the coordinator persists results and its journal there)")
			return exitUsage
		}
		// The serve address IS the observability plane: the lease fabric
		// mounts under /coord/* next to /metrics and /runs.
		obsFlags.Listen = coordFlags.Serve
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if policy.List {
		cliflags.ListPolicies(os.Stdout)
		return 0
	}
	dataPolicy, ctrPolicy, err := policy.Specs()
	if err != nil {
		logger.Error("policy flags", "err", err)
		return exitUsage
	}

	// First SIGINT/SIGTERM cancels the campaign context: in-flight
	// simulations stop within sim.CancelCheckEvery steps, completed cells
	// stay persisted, and the summary below still prints. A second signal
	// kills the process the usual way.
	ctx, stop := cliflags.SignalContext(*timeout)
	defer stop()

	// Worker mode: no experiments, no table — just the lease loop.
	if coordFlags.Join != "" {
		return joinCampaign(ctx, logger, obsFlags, coordFlags, *par)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			logger.Error("cpuprofile", "err", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			logger.Error("cpuprofile", "err", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	for _, dir := range []string{*out, *statsOut, *traceOut} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				logger.Error("create output dir", "dir", dir, "err", err)
				return 1
			}
		}
	}

	// The run table drives the progress/ETA line on every campaign and the
	// /runs endpoint when the plane is listening; the broker exists only
	// with -listen (a nil broker publishes nothing).
	sinks := obsFlags.Sinks(spanFlags, *statsIvl)
	table := obs.NewRunTable(*par, sinks.Broker)

	// The campaign-level phase accumulator: every simulation's attributed
	// wall time (decode / step / store / report) and access count merge into
	// it, feeding the live rate in progress lines, /runs snapshots, the
	// cosmos_perf_* metric families and the exit summary.
	phases := telemetry.NewPhases()
	table.AttachPhases(phases)

	lopts := []experiments.LabOption{
		experiments.WithContext(ctx),
		experiments.WithWorkers(*par),
		experiments.WithLifecycle(func(t runner.Transition) {
			table.Observe(t)
			if t.Phase != runner.PhaseDone || t.Source == runner.SourceDeduplicated {
				return
			}
			done, total, running := table.Progress()
			args := []any{
				"cell", t.Label,
				"source", t.Source.String(),
				"done", done, "total", total, "running", running,
			}
			if t.Source == runner.SourceExecuted {
				args = append(args, "exec_time", t.ExecTime.Round(time.Millisecond))
			}
			if t.Err != nil {
				args = append(args, "err", t.Err)
			}
			if eta, ok := table.ETA(); ok {
				args = append(args, "eta", eta.Round(time.Second))
			}
			if rate := phases.Rate(); rate > 0 {
				args = append(args, "rate", fmt.Sprintf("%.3g/s", rate))
			}
			logger.Info("progress", args...)
		}),
	}
	if dataPolicy != nil || ctrPolicy != nil {
		lopts = append(lopts, experiments.WithPolicy(dataPolicy, ctrPolicy))
	}
	var store *runner.Store
	if *results != "" {
		store, err = runner.OpenStore(*results)
		if err != nil {
			logger.Error("open results dir", "err", err)
			return 1
		}
		if n := store.Len(); n > 0 {
			logger.Info("resuming campaign", "results_dir", store.Dir(), "completed_runs", n)
		}
		lopts = append(lopts, experiments.WithStore(store))
	}
	lab := experiments.NewLab(experiments.Scaled(*scale), lopts...)
	lab.Orchestrator().Phases = phases

	// Coordinator mode: leader executions go to the lease fabric instead of
	// local simulation. The orchestrator keeps its store-first lookup, memo
	// and singleflight, so resumes and composite figures still dedup.
	var coordinator *coord.Coordinator
	if coordFlags.Serve != "" {
		coordinator, err = newCoordinator(store, coordFlags.LeaseTTL, logger)
		if err != nil {
			logger.Error("coordinator setup", "err", err)
			return exitCampaign
		}
		lab.Orchestrator().Executor = coordinator
	}

	// Per-cell telemetry: each executed simulation gets its own sinks,
	// with files named after the cell label; with the plane up, span
	// recorders register into the hub so /spans carries every executing
	// cell.
	if sinks.Enabled(*statsOut) {
		cellPath := func(dir, label, ext string) string {
			if dir == "" {
				return ""
			}
			return filepath.Join(dir, label+ext)
		}
		lab.Orchestrator().Instrument = func(label string, s *sim.System) func() {
			reg := telemetry.NewRegistry()
			s.RegisterMetrics(reg.Root())
			finish, err := sinks.Attach(reg, label, s,
				cellPath(*statsOut, label, ".jsonl"), cellPath(*traceOut, label, ".trace.json"))
			if err != nil {
				logger.Error("create telemetry sinks", "run", label, "err", err)
				os.Exit(exitCampaign)
			}
			return func() {
				if err := finish(); err != nil {
					logger.Warn("telemetry sink", "run", label, "err", err)
				}
			}
		}
	}

	reg := telemetry.NewRegistry()
	lab.Orchestrator().RegisterMetrics(reg.Root())
	phases.RegisterMetrics(reg.Root().Scope("perf"))
	cfg := obs.Config{
		Component: "cosmos-bench",
		Registry:  reg,
		Runs:      table,
		Events:    sinks.Broker,
		Spans:     sinks.SpanHub,
		Logger:    logger,
	}
	if coordinator != nil {
		coordinator.RegisterMetrics(reg)
		cfg.Component = "cosmos-bench-coordinator"
		cfg.Ready = coordinator.Ready
		cfg.Coord = func() any { return coordinator.Status() }
		cfg.Attach = coordinator.Mount
	}
	stopPlane, err := obsFlags.Serve(cfg)
	if err != nil {
		logger.Error("observability plane", "err", err)
		return exitCampaign
	}
	defer stopPlane()

	code := 0
	// The summary prints on every exit path — including interrupts — so a
	// resumed campaign (and the CI smoke check) can assert how much work
	// actually ran versus came from the results dir.
	defer func() {
		st := lab.Orchestrator().Stats()
		fmt.Printf("executed %d simulations (%d restored from results dir, %d memoised, %d deduplicated, %d failed)\n",
			st.Executed, st.Restored, st.Memoised, st.Deduplicated, st.Failed)
		if st.Executed > 0 {
			fmt.Printf("simulation wall time %.1fs, worker queue wait %.1fs\n",
				st.ExecTime.Seconds(), st.QueueWait.Seconds())
		}
		pb := phases.Breakdown()
		if pb.Accesses > 0 {
			fmt.Printf("campaign wall %.1fs: decode %.1fs, step %.1fs, store %.1fs, report %.1fs — %d simulated accesses (%.3g/s)\n",
				pb.WallMS/1000, pb.DecodeMS/1000, pb.StepMS/1000, pb.StoreMS/1000, pb.ReportMS/1000,
				pb.Accesses, pb.AccessesPerSec)
		}
		if *jsonSum {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(struct {
				runner.Stats
				Perf telemetry.PhaseBreakdown
			}{st, pb}); err != nil {
				logger.Error("encode campaign summary", "err", err)
			}
		}
		if store != nil {
			hits, misses, corrupt := store.Counters()
			logger.Info("result store summary",
				"hits", hits, "misses", misses, "corrupt_recomputed", corrupt,
				"memo_hits", st.Memoised)
		}
	}()

	runExp := func(e experiments.Experiment) bool {
		start := time.Now()
		t, err := e.Run(lab)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				logger.Warn("campaign interrupted", "exp", e.ID, "err", err)
			} else {
				logger.Error("experiment failed", "exp", e.ID, "err", err)
			}
			code = 1
			return false
		}
		if *out != "" {
			path := filepath.Join(*out, e.ID+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				logger.Error("write csv", "path", path, "err", err)
				code = 1
				return false
			}
		}
		if *csv {
			fmt.Printf("# %s: %s\n", e.ID, e.Title)
			fmt.Print(t.CSV())
		} else {
			t.Write(os.Stdout)
			fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		}
		return true
	}

	exps := experiments.All()
	if *exp != "all" {
		e, err := experiments.ByID(*exp)
		if err != nil {
			logger.Error("unknown experiment", "err", err)
			return exitUsage
		}
		exps = []experiments.Experiment{e}
	}
	// The worker pool (or a coordinator's fleet) runs every requested cell
	// in parallel, and the serial render below finds them memoised. A
	// prewarm failure is recorded on the lab; the first render reports it.
	_ = experiments.Prewarm(lab, exps...)
	for _, e := range exps {
		if !runExp(e) {
			break
		}
	}
	if coordinator != nil {
		finishServe(coordinator, logger, serveGrace(coordFlags))
	}
	return code
}

// Command cosmos-sim runs one workload on one secure-memory design and
// prints the full metric set: IPC, miss rates, CTR cache behaviour, DRAM
// traffic decomposition, predictor statistics and SMAT.
//
// Examples:
//
//	cosmos-sim -workload DFS -design COSMOS -accesses 2000000
//	cosmos-sim -workload mcf -design MorphCtr -accesses 1000000 -cores 8
//	cosmos-sim -workload DFS -design COSMOS -listen localhost:9090
//	cosmos-sim -workload mcf,DFS -design COSMOS -span-sample 64 -watch -listen :0
//	cosmos-sim -workload mcf -design COSMOS -span-sample 1 -span-topk 256 -trace-out mcf.trace.json
//
// With -listen the simulation serves its live observability plane while it
// runs: /metrics exposes the full telemetry registry of the system in
// Prometheus text format, /events streams interval-sampler snapshots, and
// /debug/pprof profiles the simulator itself.
//
// -span-sample enables access-level span tracing: per-cause latency
// histograms feed tail percentiles (p50/p95/p99/p999) into the results and
// a deterministic 1-in-N access subset gets a full span tree, the slowest
// exemplars served on /spans and, with -trace-out, written as a Chrome
// trace for Perfetto or about://tracing. -watch runs the online watchdog
// over the interval-sampler stream and flags phase changes and anomalies
// as events, metrics and /phases segments. A comma-separated -workload
// chains workloads back to back — the canonical phase-change input.
//
// A run stopped before its -accesses budget (a signal, -timeout, or a
// damaged or truncated trace file) still prints the results it reached,
// warns that they are partial, and exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"cosmos/cmd/internal/cliflags"
	"cosmos/internal/obs"
	"cosmos/internal/runner"
	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/stats"
	"cosmos/internal/telemetry"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

// buildWorkloads resolves the -workload flag: a single name builds that
// workload, a comma-separated list chains the named workloads back to back
// with trace.Concat, splitting the access budget evenly (the last phase
// takes the remainder).
func buildWorkloads(spec string, accesses uint64, opts workloads.Options) (trace.Generator, error) {
	names := strings.Split(spec, ",")
	if len(names) == 1 {
		return workloads.Build(spec, opts)
	}
	per := accesses / uint64(len(names))
	parts := make([]trace.Generator, len(names))
	for i, name := range names {
		g, err := workloads.Build(strings.TrimSpace(name), opts)
		if err != nil {
			return nil, err
		}
		limit := per
		if i == len(names)-1 {
			limit = accesses - per*uint64(len(names)-1)
		}
		parts[i] = trace.Limit(g, limit)
	}
	return trace.Concat(spec, parts...), nil
}

func main() {
	var (
		workload  = flag.String("workload", "DFS", "workload name ("+strings.Join(workloads.AllNames(), ", ")+")")
		design    = flag.String("design", "COSMOS", "design point ("+strings.Join(secmem.DesignNames(), ", ")+")")
		accesses  = flag.Uint64("accesses", 2_000_000, "memory accesses to simulate")
		cores     = flag.Int("cores", 4, "core/thread count")
		nodes     = flag.Int("graph-nodes", 0, "graph vertex count (0 = default)")
		degree    = flag.Int("graph-degree", 0, "graph average attachment degree (0 = default)")
		seed      = flag.Uint64("seed", 42, "deterministic seed")
		ctrPolicy = flag.String("ctr-policy", "", "override CTR cache replacement (LRU, RRIP, SHiP, Mockingjay, Random)")
		ctrPf     = flag.String("ctr-prefetcher", "", "CTR cache prefetcher (nextline, stride, berti)")
		ctrBytes  = flag.Int("ctr-cache", 0, "CTR cache bytes per core (0 = Table 3 default)")
		csv       = flag.Bool("csv", false, "emit CSV instead of a table")
		jsonOut   = flag.Bool("json", false, "emit the raw Results struct as JSON (for scripting)")

		timeout   = cliflags.RegisterTimeout(flag.CommandLine)
		obsFlags  = cliflags.RegisterObs(flag.CommandLine)
		policy    = cliflags.RegisterPolicy(flag.CommandLine)
		spanFlags = cliflags.RegisterSpans(flag.CommandLine)

		statsOut   = flag.String("stats-out", "", "write a per-interval metric time-series to this file (.csv = CSV, else JSONL)")
		statsIvl   = flag.Uint64("stats-interval", 100_000, "sampling interval in accesses for -stats-out")
		traceOut   = flag.String("trace-out", "", "write the -span-topk slowest sampled span trees as Chrome trace_event JSON (Perfetto/about://tracing); needs -span-sample")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	)
	flag.Parse()

	if policy.List {
		cliflags.ListPolicies(os.Stdout)
		return
	}

	logger, err := obsFlags.Logger("cosmos-sim")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmos-sim:", err)
		os.Exit(1)
	}
	die := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}
	// A run stopped early still prints its partial results, then exits 1
	// once every deferred sink below has flushed (this defer runs last).
	exit := 0
	defer func() {
		if exit != 0 {
			os.Exit(exit)
		}
	}()
	if err := spanFlags.Validate(*traceOut); err != nil {
		die("span flags", err)
	}

	// SIGINT/SIGTERM (or -timeout) stop the simulation within
	// sim.CancelCheckEvery steps; the metrics accumulated so far still
	// print, flagged as partial.
	ctx, stopSignals := cliflags.SignalContext(*timeout)
	defer stopSignals()

	d, err := secmem.DesignByName(*design)
	if err != nil {
		die("resolve design", err)
	}
	d.CtrPolicy = *ctrPolicy
	d.CtrPrefetcher = *ctrPf
	d.CtrCacheBytes = *ctrBytes

	cfg := sim.DefaultConfig()
	if *cores == 8 {
		cfg = sim.EightCore()
	} else {
		cfg.Cores = *cores
	}
	cfg.MC.Seed = *seed
	cfg.MC.Params.Seed = *seed
	if err := policy.Apply(&cfg.MC.Params); err != nil {
		die("resolve policy", err)
	}
	if err := cfg.Validate(); err != nil {
		die("validate config", err)
	}

	// A comma-separated -workload runs the named workloads back to back as
	// phases of one access stream (the -accesses budget split evenly, the
	// last phase taking the remainder) — the shape the watchdog detects as
	// a phase change.
	gen, err := buildWorkloads(*workload, *accesses, workloads.Options{
		Threads: *cores, Seed: *seed, GraphNodes: *nodes, GraphDegree: *degree,
	})
	if err != nil {
		die("build workload", err)
	}

	s := sim.New(cfg, d)
	label := *workload + "_" + d.Name

	// Phase attribution is always on: the attributed run loop costs ~two
	// clock reads per 256 steps and feeds the wall-time breakdown in the
	// summary, the -json Perf block and the cosmos_perf_* metric families.
	phases := telemetry.NewPhases()
	s.AttachPhases(phases)

	// Telemetry registers the system's metrics and runs the span, watch
	// and stats sinks; with none of them and no plane the run stays bare.
	sinks := obsFlags.Sinks(spanFlags, *statsIvl, logger)
	reg := telemetry.NewRegistry()
	if sinks.Enabled(*statsOut) {
		s.RegisterMetrics(reg.Root())
		phases.RegisterMetrics(reg.Root().Scope("perf"))
		finish, err := sinks.Attach(reg, label, s, *statsOut, *traceOut)
		if err != nil {
			die("create telemetry sinks", err)
		}
		defer func() {
			if err := finish(); err != nil {
				die("telemetry sink", err)
			}
		}()
	}

	// The single simulation appears as a one-cell run table on /runs.
	table := obs.NewRunTable(1, sinks.Broker)
	stopPlane, err := obsFlags.Serve(obs.Config{
		Component: "cosmos-sim",
		Registry:  reg,
		Runs:      table,
		Events:    sinks.Broker,
		Spans:     sinks.SpanHub,
		Watch:     sinks.WatchHub,
		Logger:    logger,
	})
	if err != nil {
		die("observability plane", err)
	}
	defer stopPlane()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			die("create cpuprofile", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			die("start cpuprofile", err)
		}
		defer pprof.StopCPUProfile()
	}

	table.Observe(runner.Transition{Key: label, Label: label, Phase: runner.PhaseRunning})
	started := time.Now()
	r, runErr := s.RunContext(ctx, trace.Limit(gen, *accesses), *accesses)
	wall := time.Since(started)
	pb := phases.Breakdown()
	table.Observe(runner.Transition{
		Key: label, Label: label, Phase: runner.PhaseDone,
		Source: runner.SourceExecuted, ExecTime: wall, Err: runErr, Perf: &pb,
	})
	if runErr != nil {
		logger.Warn("simulation stopped early; results are partial",
			"completed", r.Accesses, "requested", *accesses, "err", runErr)
		exit = 1
	}
	if *jsonOut {
		// Results stays embedded at the top level (scripts read fields like
		// .IPC directly); the perf breakdown rides as a sibling key.
		out := struct {
			sim.Results
			Perf telemetry.PhaseBreakdown
		}{r, pb}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			die("encode results", err)
		}
		return
	}
	printResults(r, wall, pb, *csv)
}

func printResults(r sim.Results, wall time.Duration, pb telemetry.PhaseBreakdown, csv bool) {
	t := stats.NewTable(fmt.Sprintf("%s on %s", r.Design, r.Workload), "metric", "value")
	t.Row("accesses", r.Accesses)
	t.Row("wall time", wall.Round(time.Millisecond))
	if secs := wall.Seconds(); secs > 0 {
		t.Row("simulated accesses/sec", fmt.Sprintf("%.4g", float64(r.Accesses)/secs))
	}
	t.Row("phase breakdown (ms)", fmt.Sprintf("decode %.0f, step %.0f, report %.0f",
		pb.DecodeMS, pb.StepMS, pb.ReportMS))
	t.Row("reads/writes", fmt.Sprintf("%d/%d", r.Reads, r.Writes))
	t.Row("instructions", r.Instructions)
	t.Row("cycles", r.Cycles)
	t.Row("IPC", r.IPC)
	t.Row("L1 miss rate", stats.Pct(r.L1MissRate))
	t.Row("L2 miss rate", stats.Pct(r.L2MissRate))
	t.Row("LLC miss rate", stats.Pct(r.LLCMissRate))
	t.Row("CTR accesses", r.CtrAccesses)
	t.Row("CTR miss rate", stats.Pct(r.CtrMissRate))
	t.Row("off-chip reads", r.OffChipReads)
	t.Row("walk bypasses", r.Bypassed)
	t.Row("bypass rate", stats.Pct(r.BypassRate))
	t.Row("avg fetch latency", r.AvgFetchLat)
	if r.Tail != nil {
		for _, st := range r.Tail.Causes {
			t.Row("tail: "+st.Cause+" p50/p95/p99/p999",
				fmt.Sprintf("%.0f/%.0f/%.0f/%.0f (max %d, n=%d)",
					st.P50, st.P95, st.P99, st.P999, st.Max, st.Count))
		}
		t.Row("span trees sampled", fmt.Sprintf("%d (1 in %d)", r.Tail.Sampled, r.Tail.SampleEvery))
	}
	t.Row("SMAT (cycles)", r.SMAT)
	t.Row("DRAM row-hit rate", stats.Pct(r.DRAM.RowHitRate()))

	tr := r.Traffic
	t.Row("traffic: data read", tr.DataRead)
	t.Row("traffic: data write", tr.DataWrite)
	t.Row("traffic: ctr read", tr.CtrRead)
	t.Row("traffic: ctr writeback", tr.CtrWrite)
	t.Row("traffic: MT node read", tr.MTRead)
	t.Row("traffic: MAC read", tr.MACRead)
	t.Row("traffic: MAC write", tr.MACWrite)
	t.Row("traffic: re-encryption", tr.ReEncWrite)
	t.Row("traffic: wasted fetch", tr.WastedDataFetch)
	t.Row("traffic: total", tr.Total())

	if r.DataPred != nil {
		t.Row("data pred accuracy", stats.Pct(r.DataPred.Accuracy()))
		t.Row("data pred on-chip ok/bad", fmt.Sprintf("%d/%d", r.DataPred.PredOnCorrect, r.DataPred.PredOnWrong))
		t.Row("data pred off-chip ok/bad", fmt.Sprintf("%d/%d", r.DataPred.PredOffCorrect, r.DataPred.PredOffWrong))
	}
	if r.CtrPred != nil {
		t.Row("ctr pred good fraction", stats.Pct(r.CtrPred.GoodFraction()))
		t.Row("ctr pred CET hits/misses", fmt.Sprintf("%d/%d", r.CtrPred.CETHits, r.CtrPred.CETMisses))
	}
	if r.Prefetch.Issued > 0 {
		t.Row("prefetch issued/useful", fmt.Sprintf("%d/%d", r.Prefetch.Issued, r.Prefetch.Useful))
		t.Row("prefetch accuracy", stats.Pct(r.Prefetch.Accuracy()))
	}
	if csv {
		fmt.Print(t.CSV())
		return
	}
	t.Write(os.Stdout)
}

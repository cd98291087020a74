// Command cosmos-tune searches the policy and parameter space.
//
// The default phase is the policy tournament: every candidate policy kind
// runs every tournament workload through the run orchestrator (memoised,
// deduplicated, resumable via -results-dir, observable via -listen), and
// the leaderboard ranks kinds by NP-normalised speedup against their
// predictor storage cost.
//
//	cosmos-tune                              # tabular vs perceptron vs mlp on DFS+mcf
//	cosmos-tune -kinds perceptron,mlp -workloads DFS,BFS,mcf
//	cosmos-tune -results-dir runs/ -listen :9090
//
// The paper's §4.5 random searches are the other two phases: 1,000
// hyper-parameter combinations and 1,000 reward combinations evaluated on
// a captured workload footprint and ranked by LCR-CTR hit rate.
//
//	cosmos-tune -phase hyper -trials 100
//	cosmos-tune -phase rewards -trials 100
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"cosmos/cmd/internal/cliflags"
	"cosmos/internal/core"
	"cosmos/internal/experiments"
	"cosmos/internal/obs"
	"cosmos/internal/rl"
	"cosmos/internal/runner"
	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/stats"
	"cosmos/internal/telemetry"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

func main() {
	var (
		phase     = flag.String("phase", "tournament", "search phase: tournament | hyper | rewards")
		trials    = flag.Int("trials", 100, "random combinations to test in hyper/rewards phases (paper: 1000)")
		accesses  = flag.Uint64("accesses", 300_000, "trace length per trial")
		workload  = flag.String("workload", "DFS", "hyper/rewards tuning workload (paper: GraphBIG DFS)")
		seed      = flag.Uint64("seed", 7, "search seed")
		top       = flag.Int("top", 10, "results to print in hyper/rewards phases")
		kindsFlag = flag.String("kinds", strings.Join(rl.PolicyKinds(), ","), "comma-separated policy kinds entering the tournament")
		wlsFlag   = flag.String("workloads", "DFS,mcf", "comma-separated tournament workloads")
		scale     = flag.Float64("scale", 0, "tournament workload scale factor (0 = smoke scale)")
		par       = flag.Int("parallel", runtime.NumCPU(), "concurrent tournament simulations")
		results   = flag.String("results-dir", "", "persist completed tournament simulations here and resume from it on rerun")

		timeout  = cliflags.RegisterTimeout(flag.CommandLine)
		obsFlags = cliflags.RegisterObs(flag.CommandLine)
		listPol  = flag.Bool("list-policies", false, "list the available policy kinds and exit")
	)
	flag.Parse()

	if *listPol {
		cliflags.ListPolicies(os.Stdout)
		return
	}

	logger, err := obsFlags.Logger("cosmos-tune")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cosmos-tune:", err)
		os.Exit(1)
	}
	die := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	// SIGINT/SIGTERM stop the search between (or mid-) trials; rankings over
	// the work completed so far still print.
	ctx, stopSignals := cliflags.SignalContext(*timeout)
	defer stopSignals()

	switch *phase {
	case "tournament":
		code := tournament(ctx, logger.With("phase", "tournament"), tournamentOpts{
			kinds:     splitList(*kindsFlag),
			workloads: splitList(*wlsFlag),
			scale:     *scale,
			seed:      *seed,
			parallel:  *par,
			results:   *results,
			obs:       obsFlags,
		})
		os.Exit(code)
	case "hyper", "rewards":
	default:
		die("phase", fmt.Errorf("unknown phase %q (valid: tournament, hyper, rewards)", *phase))
	}

	rng := rl.NewRand(*seed)
	type result struct {
		desc    string
		hitRate float64
	}
	var searchResults []result
	interrupted := false

	// Search progress for the observability plane (atomics: the serving
	// goroutine reads while the search loop writes).
	var trialsDone atomic.Uint64
	var bestMilli atomic.Uint64 // best hit rate × 1000
	reg := telemetry.NewRegistry()
	sc := reg.Scope("tune")
	sc.CounterFunc("trials_done", trialsDone.Load)
	sc.Gauge("best_hit_rate", func() float64 { return float64(bestMilli.Load()) / 1000 })
	stopPlane, err := obsFlags.Serve(obs.Config{Component: "cosmos-tune", Registry: reg, Logger: logger})
	if err != nil {
		die("observability plane", err)
	}
	defer stopPlane()

	evaluate := func(p core.Params, desc string) {
		if interrupted {
			return
		}
		gen, err := workloads.Build(*workload, workloads.Options{
			Threads: 4, Seed: 42,
			GraphNodes:  experiments.SmallScale().GraphNodes,
			GraphDegree: experiments.SmallScale().GraphDegree,
		})
		if err != nil {
			die("build workload", err)
		}
		cfg := sim.DefaultConfig()
		cfg.MC.Params = p
		if err := cfg.Validate(); err != nil {
			die("validate config", err)
		}
		s := sim.New(cfg, secmem.DesignCosmos())
		r, err := s.RunContext(ctx, trace.Limit(gen, *accesses), *accesses)
		if err != nil {
			logger.Warn("search interrupted; ranking completed trials",
				"completed", len(searchResults), "err", err)
			interrupted = true
			return
		}
		hit := 1 - r.CtrMissRate
		searchResults = append(searchResults, result{desc: desc, hitRate: hit})
		trialsDone.Add(1)
		if m := uint64(math.Round(hit * 1000)); m > bestMilli.Load() {
			bestMilli.Store(m)
		}
	}

	base := core.DefaultParams()
	switch *phase {
	case "hyper":
		// Fixed rewards ±10 (as in §4.5), random (α, γ, ε) triples.
		fixed := base
		fixed.DataRewards = core.DataRewards{Hi: 10, Mo: 10, Ho: -10, Mi: -10}
		fixed.CtrRewards = core.CtrRewards{Hg: 10, Hb: -10, Mb: 10, Mg: -10, Eb: 10, Eg: -10}
		for i := 0; i < *trials; i++ {
			p := fixed
			p.Data = core.Hyper{Alpha: 0.001 + rng.Float64()*0.999, Gamma: 0.001 + rng.Float64()*0.999, Epsilon: rng.Float64() * 0.5}
			p.Ctr = core.Hyper{Alpha: 0.001 + rng.Float64()*0.999, Gamma: 0.001 + rng.Float64()*0.999, Epsilon: rng.Float64() * 0.1}
			evaluate(p, fmt.Sprintf("aD=%.3f gD=%.2f eD=%.3f | aC=%.3f gC=%.2f eC=%.4f",
				p.Data.Alpha, p.Data.Gamma, p.Data.Epsilon, p.Ctr.Alpha, p.Ctr.Gamma, p.Ctr.Epsilon))
		}
		// Include the paper's tuned triple for reference.
		evaluate(base, "PAPER: aD=0.090 gD=0.88 eD=0.100 | aC=0.050 gC=0.35 eC=0.0010")
	case "rewards":
		// Fixed tuned hyper-parameters, random rewards in the paper's
		// ranges (positive 0..100, negative -100..-1).
		pos := func() float64 { return float64(rng.Intn(101)) }
		neg := func() float64 { return -1 - float64(rng.Intn(100)) }
		for i := 0; i < *trials; i++ {
			p := base
			p.DataRewards = core.DataRewards{Hi: pos(), Mo: pos(), Ho: neg(), Mi: neg()}
			p.CtrRewards = core.CtrRewards{Hg: pos(), Mb: pos(), Eb: pos(), Hb: neg(), Mg: neg(), Eg: neg()}
			evaluate(p, fmt.Sprintf("D{hi=%.0f mo=%.0f ho=%.0f mi=%.0f} C{hg=%.0f mb=%.0f eb=%.0f hb=%.0f mg=%.0f eg=%.0f}",
				p.DataRewards.Hi, p.DataRewards.Mo, p.DataRewards.Ho, p.DataRewards.Mi,
				p.CtrRewards.Hg, p.CtrRewards.Mb, p.CtrRewards.Eb, p.CtrRewards.Hb, p.CtrRewards.Mg, p.CtrRewards.Eg))
		}
		evaluate(base, "PAPER: Table 1 rewards")
	}

	sort.Slice(searchResults, func(i, j int) bool { return searchResults[i].hitRate > searchResults[j].hitRate })
	if *top > len(searchResults) {
		*top = len(searchResults)
	}
	fmt.Printf("top %d of %d combinations by LCR-CTR hit rate (%s):\n", *top, len(searchResults), *workload)
	for i := 0; i < *top; i++ {
		fmt.Printf("%2d. hit=%.3f  %s\n", i+1, searchResults[i].hitRate, searchResults[i].desc)
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

type tournamentOpts struct {
	kinds     []string
	workloads []string
	scale     float64
	seed      uint64
	parallel  int
	results   string
	obs       *cliflags.Obs
}

// tournament races every candidate policy kind over every workload: each
// candidate gets its own Lab (the policy pair enters each run's content
// hash), all labs share one result store, and the leaderboard ranks kinds
// by geometric-mean NP-normalised speedup against storage cost.
func tournament(ctx context.Context, logger *slog.Logger, o tournamentOpts) int {
	if len(o.kinds) == 0 || len(o.workloads) == 0 {
		logger.Error("tournament needs at least one kind and one workload")
		return 1
	}
	for _, kind := range o.kinds {
		if err := (&rl.PolicySpec{Kind: kind}).Validate(); err != nil {
			logger.Error("candidate", "err", err)
			return 1
		}
	}

	var broker *obs.Broker
	if o.obs.Listen != "" {
		broker = obs.NewBroker()
	}
	table := obs.NewRunTable(o.parallel, broker)
	var store *runner.Store
	if o.results != "" {
		var err error
		store, err = runner.OpenStore(o.results)
		if err != nil {
			logger.Error("open results dir", "err", err)
			return 1
		}
		if n := store.Len(); n > 0 {
			logger.Info("resuming tournament", "results_dir", store.Dir(), "completed_runs", n)
		}
	}
	stopPlane, err := o.obs.Serve(obs.Config{Component: "cosmos-tune", Runs: table, Events: broker, Logger: logger})
	if err != nil {
		logger.Error("observability plane", "err", err)
		return 1
	}
	defer stopPlane()

	sc := experiments.Scaled(o.scale)
	sc.Seed = o.seed
	newLab := func(opts ...experiments.LabOption) *experiments.Lab {
		opts = append(opts,
			experiments.WithContext(ctx),
			experiments.WithWorkers(o.parallel),
			experiments.WithLifecycle(func(t runner.Transition) {
				table.Observe(t)
				if t.Phase == runner.PhaseDone && t.Source == runner.SourceExecuted {
					done, total, _ := table.Progress()
					logger.Info("cell done", "cell", t.Label, "done", done, "total", total,
						"exec_time", t.ExecTime.Round(time.Millisecond))
				}
			}),
		)
		if store != nil {
			opts = append(opts, experiments.WithStore(store))
		}
		return experiments.NewLab(sc, opts...)
	}

	// cellsOf plans design d on every workload. Prewarm runs a lab's cells
	// in parallel from it, so the loop below, which reads them in order,
	// finds them memoised.
	cellsOf := func(d secmem.Design) experiments.Experiment {
		return experiments.Experiment{ID: "tournament-" + d.Name, Gen: func(l *experiments.Lab) *stats.Table {
			for _, wl := range o.workloads {
				l.Run(wl, d)
			}
			return nil
		}}
	}

	// The baseline lab (no policy option) provides NP cycles per workload; it
	// shares the store, so baselines resume too.
	baseline := newLab()
	if err := experiments.Prewarm(baseline, cellsOf(secmem.DesignNP())); err != nil {
		logger.Error("tournament aborted", "err", err)
		return 1
	}
	type cell struct {
		kind     string
		workload string
		speedup  float64
		ctrMiss  float64
	}
	type standing struct {
		kind    string
		bits    int
		geomean float64
	}
	var cells []cell
	var board []standing
	executed := 0
	for _, kind := range o.kinds {
		spec := &rl.PolicySpec{Kind: kind}
		// Both predictor roles run the candidate kind — the tournament races
		// whole policy families, not single roles.
		lab := newLab(experiments.WithPolicy(spec, spec))
		probe, err := rl.NewPolicy(*spec, o.seed)
		if err != nil {
			logger.Error("candidate", "kind", kind, "err", err)
			return 1
		}
		if err := experiments.Prewarm(lab, cellsOf(secmem.DesignCosmos())); err != nil {
			logger.Error("tournament aborted", "kind", kind, "err", err)
			return 1
		}
		logmean := 0.0
		for _, wl := range o.workloads {
			np := baseline.Run(wl, secmem.DesignNP())
			r := lab.Run(wl, secmem.DesignCosmos())
			if err := lab.Err(); err != nil {
				logger.Error("tournament aborted", "kind", kind, "workload", wl, "err", err)
				return 1
			}
			if err := baseline.Err(); err != nil {
				logger.Error("tournament aborted", "workload", wl, "err", err)
				return 1
			}
			speedup := 0.0
			if r.Cycles > 0 {
				speedup = float64(np.Cycles) / float64(r.Cycles)
			}
			cells = append(cells, cell{kind: kind, workload: wl, speedup: speedup, ctrMiss: r.CtrMissRate})
			logmean += math.Log(math.Max(speedup, 1e-12))
		}
		st := lab.Orchestrator().Stats()
		executed += int(st.Executed)
		board = append(board, standing{
			kind:    kind,
			bits:    probe.StorageBits(),
			geomean: math.Exp(logmean / float64(len(o.workloads))),
		})
	}

	t := stats.NewTable(fmt.Sprintf("policy tournament: %d kinds x %d workloads (COSMOS vs NP, both roles)",
		len(o.kinds), len(o.workloads)), "kind", "workload", "perf-vs-NP", "ctr-miss")
	for _, c := range cells {
		t.Row(c.kind, c.workload, fmt.Sprintf("%.3f", c.speedup), stats.Pct(c.ctrMiss))
	}
	t.Write(os.Stdout)

	sort.Slice(board, func(i, j int) bool { return board[i].geomean > board[j].geomean })
	lb := stats.NewTable("leaderboard: storage bits vs geomean speedup", "rank", "kind", "storage-bits", "geomean-perf")
	for i, s := range board {
		lb.Row(i+1, s.kind, s.bits, fmt.Sprintf("%.3f", s.geomean))
	}
	lb.Write(os.Stdout)

	bst := baseline.Orchestrator().Stats()
	executed += int(bst.Executed)
	fmt.Printf("executed %d simulations this invocation (rest restored from the results dir or memoised)\n", executed)
	return 0
}

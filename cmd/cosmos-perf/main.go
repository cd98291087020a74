// Command cosmos-perf is the performance-observability harness: it measures
// the benchmark suite (per-design Step ns/op and allocs/op, trace-decode
// throughput, end-to-end campaign accesses/sec) with repeated interleaved
// samples, writes a versioned BENCH_<n>.json report stamped with the machine
// fingerprint, and statistically compares reports (median + Mann–Whitney U +
// noise threshold) into per-metric verdicts.
//
// Examples:
//
//	cosmos-perf -quick -out BENCH_7.json -seq 7 -history perf/HISTORY.jsonl
//	cosmos-perf -quick -baseline BENCH_6.json            # the CI ratchet
//	cosmos-perf -compare BENCH_6.json BENCH_7.json       # offline diff
//	cosmos-perf -quick -baseline BENCH_6.json -handicap 2  # ratchet self-test
//
// Exit status: 0 clean, 1 when the comparison finds a statistically
// significant regression, 2 on operational errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cosmos/cmd/internal/cliflags"
	"cosmos/internal/perf"
	"cosmos/internal/stats"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "CI regime: 5 samples with small op counts (default regime is 10 larger samples)")
		samples   = flag.Int("samples", 0, "override samples per metric (0 = regime default)")
		stepOps   = flag.Int("step-ops", 0, "override timed Step calls per sample (0 = regime default)")
		decodeOps = flag.Int("decode-ops", 0, "override decode trace length (0 = regime default)")
		e2e       = flag.Bool("e2e", true, "include the end-to-end campaign benchmark")
		e2eScale  = flag.Float64("e2e-scale", 0, "experiment scale factor for the e2e benchmark (0 = smallest)")
		workers   = flag.Int("workers", 0, "campaign workers for the e2e benchmark (0 = GOMAXPROCS)")
		handicap  = flag.Float64("handicap", 0, "self-test knob: artificially slow every measurement by this factor (2 must fail a clean ratchet)")
		timeout   = cliflags.RegisterTimeout(flag.CommandLine)

		out     = flag.String("out", "", "write the measured report to this file (BENCH_<n>.json)")
		seq     = flag.Int("seq", 0, "sequence number stamped into the report (the <n> of BENCH_<n>.json)")
		history = flag.String("history", "", "append a summary line to this trajectory file (perf/HISTORY.jsonl)")

		compare   = flag.Bool("compare", false, "compare two existing reports (args: base.json current.json) instead of measuring")
		baseline  = flag.String("baseline", "", "after measuring, ratchet the new report against this baseline report")
		alpha     = flag.Float64("alpha", 0.05, "significance level of the Mann–Whitney test")
		threshold = flag.Float64("threshold", 0.05, "minimum relative median delta to count as a real change (0.05 = 5%; use a loose value across machines)")
	)
	flag.Parse()
	opts := perf.CompareOpts{Alpha: *alpha, Threshold: *threshold}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "cosmos-perf: -compare needs exactly two report paths (base current)")
			os.Exit(2)
		}
		base, err := perf.ReadReport(flag.Arg(0))
		if err != nil {
			die(err)
		}
		cur, err := perf.ReadReport(flag.Arg(1))
		if err != nil {
			die(err)
		}
		os.Exit(verdict(base, cur, opts))
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "cosmos-perf: unexpected arguments (did you mean -compare?):", flag.Args())
		os.Exit(2)
	}

	ctx, stopSignals := cliflags.SignalContext(*timeout)
	defer stopSignals()

	cfg := perf.DefaultConfig()
	if *quick {
		cfg = perf.QuickConfig()
	}
	if *samples > 0 {
		cfg.Samples = *samples
	}
	if *stepOps > 0 {
		cfg.StepOps = *stepOps
	}
	if *decodeOps > 0 {
		cfg.DecodeOps = *decodeOps
	}
	cfg.E2E = *e2e
	cfg.E2EScale = *e2eScale
	cfg.Workers = *workers
	cfg.Handicap = *handicap
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "cosmos-perf: "+format+"\n", args...)
	}

	fmt.Printf("environment: %s\n", perf.CollectFingerprint())
	start := time.Now()
	report, err := perf.RunSuite(ctx, cfg)
	if err != nil {
		die(err)
	}
	report.Seq = *seq
	fmt.Printf("suite done in %.1fs (%d samples per metric)\n", time.Since(start).Seconds(), cfg.Samples)
	printReport(report)

	if *out != "" {
		if err := report.WriteFile(*out); err != nil {
			die(err)
		}
		fmt.Println("report written to", *out)
	}
	if *history != "" {
		if err := perf.AppendHistory(*history, perf.HistoryEntryOf(report)); err != nil {
			die(err)
		}
		fmt.Println("trajectory appended to", *history)
	}
	if *baseline != "" {
		base, err := perf.ReadReport(*baseline)
		if err != nil {
			die(err)
		}
		os.Exit(verdict(base, report, opts))
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "cosmos-perf:", err)
	os.Exit(2)
}

// printReport renders the measured samples as a table.
func printReport(r *perf.Report) {
	t := stats.NewTable("measured suite", "metric", "unit", "median", "iqr", "samples")
	for _, m := range r.Metrics {
		t.Row(m.Name, m.Unit,
			fmt.Sprintf("%.4g", m.Median),
			fmt.Sprintf("%.3g", m.IQR),
			fmt.Sprintf("%d", len(m.Samples)))
	}
	t.Write(os.Stdout)
}

// verdict prints the delta table and returns the process exit code: 1 when
// any metric regressed significantly, 0 otherwise.
func verdict(base, cur *perf.Report, opts perf.CompareOpts) int {
	c := perf.Compare(base, cur, opts)
	for _, d := range c.FingerprintDiff {
		fmt.Println("warning: fingerprint mismatch —", d)
	}
	if len(c.FingerprintDiff) > 0 {
		fmt.Println("warning: wall-clock metrics only transfer between identical machines; use a loose -threshold")
	}
	c.Table().Write(os.Stdout)
	improved, regressed, indist := c.Counts()
	fmt.Printf("%d improved, %d regressed, %d indistinguishable\n", improved, regressed, indist)
	if c.Regressed() {
		fmt.Println("PERF RATCHET: FAIL")
		return 1
	}
	fmt.Println("PERF RATCHET: PASS")
	return 0
}

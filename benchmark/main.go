// Command benchmark is the repository benchmark. It measures what a user of
// the simulator pays, simulated accesses per second, set-up time and peak
// memory, on four workloads, with tracing off; with -trace 1 it
// instead attributes host time to every layer an access passes through.
// The last line of its standard output is a JSON summary:
//
//	{"correct": true, "attempted": 48, "failed": 0, "metrics": {"accesses_per_s": {"value": 2.1e6, "unit": "acc/s"}, ...}}
//
// Usage, from this directory (or through run.sh from the repository root):
//
//	go run . [-workload all|irregular|regular-writes|learned-policy|campaign]
//	         [-seed 42] [-seconds 0] [-trace 0|1 | -traced] [-out spans.jsonl] [-report r.json]
//	go run . -compare base.json new.json
//	go run . -update-golden golden.json
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, fullSizes())) }

// childEnv carries a repetition's workload, seed and sizes to a child
// process; its presence makes the process run that one repetition.
const childEnv = "COSMOS_BENCHMARK_CHILD"

type childSpec struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Sizes    sizes  `json:"sizes"`
	// Seconds is the repetition's share of the run.
	Seconds float64 `json:"seconds"`
}

// An untraced run is rounds of one repetition per workload, each a fresh
// process making passes over the workload's cells. The run's time,
// -seconds or else defaultSeconds per workload, is split evenly over the
// repetitions, set-up included. Every repetition sets up cold once, so
// five rounds give setup_s five samples.
const (
	rounds         = 5
	defaultSeconds = 30
	// timedRunLimit bounds a run given -seconds: every repetition is
	// stopped by then, so the process ends within three minutes.
	timedRunLimit = 170 * time.Second
)

func run(args []string, stdout io.Writer, sz sizes) int {
	if spec := os.Getenv(childEnv); spec != "" {
		return childMain(spec, stdout)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", canonicalSeed, "seed of every workload generator")
	seconds := fs.Float64("seconds", 0, "measure for about this many seconds (0: 30 per workload)")
	traceLevel := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	traced := fs.Bool("traced", false, "same as -trace 1")
	spansOut := fs.String("out", "", "write the traced run's spans to this file as JSON lines")
	reportOut := fs.String("report", "", "write every measured sample to this JSON file, the input of -compare")
	compare := fs.Bool("compare", false, "compare two -report files: -compare base.json new.json")
	golden := fs.String("update-golden", "", "rewrite the golden digests at this path from this run (seed 42 only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout)
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (valid: all, %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}
	if *golden != "" && (*seed != canonicalSeed || *traceLevel != 0 || *traced) {
		fmt.Fprintln(os.Stderr, "benchmark: -update-golden needs the untraced run on seed 42")
		return 2
	}

	ctx := context.Background()
	if *seconds > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timedRunLimit)
		defer cancel()
	}
	fp := collectFingerprint()
	fmt.Fprintf(stdout, "benchmark: %s, seed %d\n", fp, *seed)

	var res []workloadResult
	var err error
	if *traceLevel == 1 || *traced {
		res, err = tracedMain(ctx, names, *seed, sz, *spansOut)
	} else {
		res, err = untracedMain(ctx, names, *seed, *seconds, sz, *golden)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printTable(stdout, res)
	if *reportOut != "" {
		if err := writeReport(*reportOut, fp, *seed, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	sum := summarize(res)
	b, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !sum.Correct {
		return 1
	}
	return 0
}

// workloadResult is what one workload's run measured.
type workloadResult struct {
	Name      string
	Metrics   []metricSamples
	Checks    []string // one line per check, printed under the table
	Problems  []string
	Attempted int
	Failed    int
}

// metricSamples is one metric's samples: one per repetition for end-to-end
// metrics, one per traced run for per-layer ones. Value is what the run
// reports: the samples' median, except for accesses_per_s, which takes the
// median over all passes of the run (see medianRefS).
type metricSamples struct {
	metricDef
	Value  float64   `json:"value"`
	Values []float64 `json:"values"`
}

func medianOf(d metricDef, values []float64) metricSamples {
	return metricSamples{d, median(values), values}
}

func childMain(spec string, stdout io.Writer) int {
	var cs childSpec
	if err := json.Unmarshal([]byte(spec), &cs); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: bad child spec:", err)
		return 2
	}
	lockThread()
	rep, err := runRep(context.Background(), cs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s repetition: %v\n", cs.Workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// spawnRep runs one repetition in a fresh child process and reads its peak
// resident set from the child's rusage.
func spawnRep(ctx context.Context, cs childSpec) (repResult, error) {
	name := cs.Workload
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	spec, err := json.Marshal(cs)
	if err != nil {
		return repResult{}, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return repResult{}, fmt.Errorf("%s repetition: %w", name, err)
	}
	var rep repResult
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &rep); err != nil {
		return repResult{}, fmt.Errorf("%s repetition output: %w", name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep, nil
}

// untracedMain runs the workloads' repetitions round-robin, rotating the
// order each round so no workload always runs first, and checks every
// cell's digest against the other passes and, on the canonical seed,
// against golden.json.
func untracedMain(ctx context.Context, names []string, seed uint64, seconds float64, sz sizes, goldenOut string) ([]workloadResult, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	var golden map[string]string
	if seed == canonicalSeed && goldenOut == "" {
		golden = g.Cells
	}
	res := make([]workloadResult, len(names))
	reps := make([][]repResult, len(names))
	first := make([]map[string]string, len(names))
	for i, n := range names {
		res[i].Name = n
		first[i] = map[string]string{}
	}
	if seconds <= 0 {
		seconds = defaultSeconds * float64(len(names))
	}
	start := time.Now()
	slots := rounds * len(names)
	for round := 0; round < rounds; round++ {
		for k := range names {
			i := (k + round) % len(names)
			// The repetition ends by its slot's share of the run, or after
			// one pass when earlier ones overran.
			slot := float64(round*len(names)+k+1) / float64(slots)
			cs := childSpec{Workload: names[i], Seed: seed, Sizes: sz,
				Seconds: max(seconds*slot-time.Since(start).Seconds(), 1e-9)}
			rep, err := spawnRep(ctx, cs)
			if err != nil {
				res[i].Attempted++
				res[i].Failed++
				res[i].Problems = append(res[i].Problems, err.Error())
				continue
			}
			reps[i] = append(reps[i], rep)
			for _, p := range rep.Passes {
				failed, problems := checkCells(names[i], p.Cells, first[i], golden)
				res[i].Attempted += len(p.Cells)
				res[i].Failed += failed
				res[i].Problems = append(res[i].Problems, problems...)
			}
		}
	}

	measured := map[string]map[string]string{}
	for i := range res {
		var perSec, setup, setupHost, rss []float64
		var passes []passResult
		for _, rep := range reps[i] {
			perSec = append(perSec, ratio(float64(rep.Passes[0].Accesses), medianRefS(rep.Passes)))
			setup = append(setup, rep.Passes[0].Setup.Ref)
			setupHost = append(setupHost, rep.Passes[0].Setup.Wall)
			rss = append(rss, rep.PeakRSSMB)
			passes = append(passes, rep.Passes...)
		}
		throughput := metricSamples{metricDef: endToEnd[0], Values: perSec}
		if len(passes) > 0 {
			throughput.Value = ratio(float64(passes[0].Accesses), medianRefS(passes))
			var slow []float64
			for _, p := range passes {
				slow = append(slow, ratio(p.Run.Wall, p.Run.Ref))
			}
			res[i].Checks = append(res[i].Checks,
				fmt.Sprintf("%d repetitions, %d passes of %d cells", len(reps[i]), len(passes), len(passes[0].Cells)),
				fmt.Sprintf("accesses_per_s over the median pass in reference seconds, %d slices a pass; host time ran %.2fx reference time (median pass)",
					passes[0].Run.Laps, median(slow)),
				fmt.Sprintf("setup_s in reference seconds; %.4g host seconds (median repetition)", median(setupHost)))
			if s := cosmosSpeedup(passes[0].Cells); s > 0 {
				res[i].Checks = append(res[i].Checks,
					fmt.Sprintf("cosmos_speedup %.4f: geomean cycles(MorphCtr)/cycles(COSMOS), exact under a fixed seed", s))
			}
		}
		res[i].Metrics = []metricSamples{throughput, medianOf(endToEnd[1], setup), medianOf(endToEnd[2], rss)}
		measured[names[i]] = first[i]
	}
	if goldenOut != "" {
		for _, r := range res {
			if r.Failed > 0 {
				return nil, fmt.Errorf("not updating goldens: %s had %d failed cells", r.Name, r.Failed)
			}
		}
		if err := updateGolden(goldenOut, g, measured); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tracedMain runs the traced run of each workload in this process.
func tracedMain(ctx context.Context, names []string, seed uint64, sz sizes, spansOut string) ([]workloadResult, error) {
	t := newTracer()
	var cellLabels []string
	var res []workloadResult
	for _, n := range names {
		m, ct, err := tracedRun(ctx, n, seed, sz, t, &cellLabels)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", n, err)
		}
		r := workloadResult{Name: n, Attempted: ct.attempted, Failed: ct.failed, Problems: ct.problems}
		for _, d := range perLayer {
			r.Metrics = append(r.Metrics, medianOf(d, []float64{m[d.Name]}))
		}
		res = append(res, r)
	}
	if spansOut != "" {
		if err := t.writeSpans(spansOut, cellLabels); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// printTable prints every metric with its unit, reported value, median,
// min, max and sample count, then the checks and any failures.
func printTable(w io.Writer, res []workloadResult) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tvalue\tmedian\tmin\tmax\tn\t")
	for _, r := range res {
		for _, m := range r.Metrics {
			lo, hi := minMax(m.Values)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%d\t\n", r.Name, m.Name, m.Unit, m.Value, median(m.Values), lo, hi, len(m.Values))
		}
	}
	tw.Flush()
	for _, r := range res {
		for _, c := range r.Checks {
			fmt.Fprintf(w, "check %s: %s\n", r.Name, c)
		}
		fmt.Fprintf(w, "check %s: %d of %d attempted cells failed\n", r.Name, r.Failed, r.Attempted)
		for _, p := range r.Problems {
			fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", r.Name, p)
		}
	}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize reports each metric's value. With several workloads, metric
// names are prefixed "<workload>/".
func summarize(res []workloadResult) summary {
	s := summary{Metrics: map[string]metricValue{}}
	for _, r := range res {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if len(res) > 1 {
				name = r.Name + "/" + name
			}
			s.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	return s
}

// report is the -report file: every sample of every metric, with the
// environment it was measured on.
type report struct {
	Fingerprint fingerprint      `json:"fingerprint"`
	Seed        uint64           `json:"seed"`
	Workloads   []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name    string          `json:"name"`
	Metrics []metricSamples `json:"metrics"`
}

func writeReport(path string, fp fingerprint, seed uint64, res []workloadResult) error {
	rep := report{Fingerprint: fp, Seed: seed}
	for _, r := range res {
		rep.Workloads = append(rep.Workloads, workloadReport{Name: r.Name, Metrics: r.Metrics})
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fingerprint is the host a run was measured on.
type fingerprint struct {
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func collectFingerprint() fingerprint {
	return fingerprint{GoVersion: runtime.Version(), CPUModel: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%s, %s, nproc %d, GOMAXPROCS %d", f.GoVersion, f.CPUModel, f.NumCPU, f.GOMAXPROCS)
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown cpu".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown cpu"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown cpu"
}

var errUsage = errors.New("usage: benchmark -compare base.json new.json")

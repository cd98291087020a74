package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"cosmos/internal/experiments"
	"cosmos/internal/memsys"
	"cosmos/internal/rl"
	"cosmos/internal/runner"
	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

// The four workloads. Each stresses a different set of layers:
//
//   - irregular: mcf and PageRank on a 1M-node Barabási–Albert graph, the
//     paper's target class. Most accesses go off chip and the MorphCtr
//     counter cache misses 81–86% of the time, so the counter path, the
//     Merkle walk and DRAM dominate host time; the graph build gives set-up
//     time and memory real weight.
//   - regular-writes: ResNet and omnetpp. The counter path mostly hits, so a
//     counter-miss or Merkle optimisation must leave this workload
//     unchanged; 14% and 47% stores drive the cache store path, dirty
//     writeback cascades, counter increments and MAC updates.
//   - learned-policy: mcf and canneal on COSMOS with both predictors swapped
//     for the perceptron and then the MLP policy, where the policy is 40% to
//     80% of step time.
//   - campaign: the fig10 figure at scale 0, cold, into a fresh result store:
//     the only workload that exercises the runner's worker pool, memo,
//     spec hashing and store writes.
//
// Every cell runs the Table 3 4-core machine with caches starting empty.
const (
	wIrregular = "irregular"
	wRegular   = "regular-writes"
	wLearned   = "learned-policy"
	wCampaign  = "campaign"
)

var workloadNames = []string{wIrregular, wRegular, wLearned, wCampaign}

// canonicalSeed is the seed the golden digests were recorded with.
const canonicalSeed = 42

// sizes are the access budgets of the workloads. fullSizes is the benchmark;
// tests run the same code at toy size.
type sizes struct {
	Irregular  uint64 `json:"irregular"` // accesses per irregular cell
	Regular    uint64 `json:"regular"`   // accesses per regular-writes cell
	Learned    uint64 `json:"learned"`   // accesses per learned-policy cell
	GraphNodes int    `json:"graph_nodes"`
	// Traced is the per-cell access budget of the traced run.
	Traced uint64 `json:"traced"`
	// Campaign is the fig10 scale; its Seed is replaced by the run's seed.
	Campaign experiments.Scale `json:"campaign"`
}

// fullSizes keeps one pass over a workload's cells near a second or two, so
// a 30-second run makes 10 to 40 passes.
func fullSizes() sizes {
	campaign := experiments.SmallScale()
	campaign.Accesses = 50_000
	return sizes{
		Irregular:  150_000,
		Regular:    300_000,
		Learned:    75_000,
		GraphNodes: 1_000_000,
		Traced:     1_000_000,
		Campaign:   campaign,
	}
}

// cell is one simulation: a workload stream on one design point.
type cell struct {
	Workload   string
	Design     secmem.Design
	Policy     string // rl policy kind of both predictors; "" is the tabular default
	Accesses   uint64
	GraphNodes int
}

func (c cell) label() string {
	l := c.Workload + "_" + c.Design.Name
	if c.Policy != "" {
		l += "_pol-" + c.Policy
	}
	return l
}

// config is the machine the runner would build for the cell's spec.
func (c cell) config(seed uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.MC.Seed = seed
	cfg.MC.Params.Seed = seed
	if c.Policy != "" {
		cfg.MC.Params.DataPolicy = &rl.PolicySpec{Kind: c.Policy}
		cfg.MC.Params.CtrPolicy = &rl.PolicySpec{Kind: c.Policy}
	}
	return cfg
}

func (c cell) options(seed uint64) workloads.Options {
	return workloads.Options{Threads: 4, Seed: seed, GraphNodes: c.GraphNodes, GraphDegree: 8}
}

// spec is the cell as a runner request.
func (c cell) spec(seed uint64) runner.Spec {
	sp := runner.Spec{
		Workload:    c.Workload,
		Design:      c.Design,
		Cores:       4,
		Accesses:    c.Accesses,
		GraphNodes:  c.GraphNodes,
		GraphDegree: 8,
		Seed:        seed,
		Label:       c.label(),
	}
	if c.Policy != "" {
		cfg := c.config(seed)
		sp.Config = &cfg
	}
	return sp
}

// build makes the cell's access stream.
func (c cell) build(seed uint64) (trace.Generator, error) {
	gen, err := workloads.Build(c.Workload, c.options(seed))
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", c.label(), err)
	}
	return gen, nil
}

var baseDesigns = []secmem.Design{secmem.DesignNP(), secmem.DesignMorph(), secmem.DesignCosmos()}

// cellsOf lists a single-run workload's cells; the campaign has none (its
// cells come from the fig10 generator).
func cellsOf(name string, sz sizes) []cell {
	var out []cell
	switch name {
	case wIrregular:
		for _, w := range []string{"mcf", "PR"} {
			for _, d := range baseDesigns {
				c := cell{Workload: w, Design: d, Accesses: sz.Irregular}
				if w == "PR" {
					c.GraphNodes = sz.GraphNodes
				}
				out = append(out, c)
			}
		}
	case wRegular:
		for _, w := range []string{"ResNet", "omnetpp"} {
			for _, d := range baseDesigns {
				out = append(out, cell{Workload: w, Design: d, Accesses: sz.Regular})
			}
		}
	case wLearned:
		for _, w := range []string{"mcf", "canneal"} {
			for _, p := range []string{rl.KindPerceptron, rl.KindMLP} {
				out = append(out, cell{Workload: w, Design: secmem.DesignCosmos(), Policy: p, Accesses: sz.Learned})
			}
		}
	}
	return out
}

// cellResult is one simulated cell as a repetition reports it.
type cellResult struct {
	Label    string `json:"label"`
	Workload string `json:"workload"`
	Design   string `json:"design"`
	Cycles   uint64 `json:"cycles"`
	Digest   string `json:"digest"`
	Err      string `json:"err,omitempty"`
}

// repResult is one repetition of a workload: a fresh child process, so
// graph caches, heap and RSS start cold, that makes passes over the
// workload's cells. Its first pass's set-up is the cold set-up.
type repResult struct {
	Passes []passResult `json:"passes"`
	// PeakRSSMB is filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"-"`
}

// passResult is one pass over a workload's cells: every cell set up anew
// and simulated from empty caches, so every pass does the same work.
type passResult struct {
	// Setup and Run are the set-up and the simulation time, in host and in
	// reference seconds (see refclock.go).
	Setup    refClock     `json:"setup"`
	Run      refClock     `json:"run"`
	Accesses uint64       `json:"accesses"`
	Cells    []cellResult `json:"cells"`
}

// timedSlice is how many accesses of a cell are timed together, about
// 5-40 ms of simulation: short against the tenths of seconds to minutes
// for which a shared host's core stays in a fast or a slow state.
const timedSlice = 1 << 15

// sliceTimer forwards a cell's stream to System.RunContext and ends a
// slice of its clock at every timedSlice-th access it hands out, between
// two of RunContext's blocks.
type sliceTimer struct {
	g       trace.Generator
	n, next uint64
	clock   refClock
}

// newSliceTimer starts the clock: the cell's simulation begins.
func newSliceTimer(g trace.Generator) *sliceTimer {
	s := &sliceTimer{g: g, next: timedSlice}
	s.clock.start()
	return s
}

func (s *sliceTimer) Name() string { return s.g.Name() }

func (s *sliceTimer) Next() (memsys.Access, bool) {
	var a [1]memsys.Access
	if s.NextBlock(a[:]) == 0 {
		return memsys.Access{}, false
	}
	return a[0], true
}

func (s *sliceTimer) NextBlock(dst []memsys.Access) int {
	if s.n >= s.next {
		s.clock.lap()
		s.next += timedSlice
	}
	m := trace.NextBlock(s.g, dst)
	s.n += uint64(m)
	return m
}

func (s *sliceTimer) Close() { trace.CloseIfCloser(s.g) }

// finish ends the last slice when the run returns.
func (s *sliceTimer) finish() refClock {
	s.clock.lap()
	return s.clock
}

// medianRefS is the median over passes of their simulation time in
// reference seconds.
func medianRefS(passes []passResult) float64 {
	var s []float64
	for _, p := range passes {
		s = append(s, p.Run.Ref)
	}
	return median(s)
}

// runRep makes the passes of one repetition while the next pass, taking as
// long as the last one's warm part, still ends within cs.Seconds of the
// start; it makes at least one. The first pass is cold: its set-up is the
// repetition's set-up time.
func runRep(ctx context.Context, cs childSpec) (repResult, error) {
	var r repResult
	start := time.Now()
	for {
		t0 := time.Now()
		cold := len(r.Passes) == 0
		p, err := runPass(ctx, cs.Workload, cs.Seed, cs.Sizes, cold)
		if err != nil {
			return r, err
		}
		r.Passes = append(r.Passes, p)
		now := time.Now()
		next := now.Sub(t0)
		if cold {
			next -= time.Duration(p.Setup.Wall * float64(time.Second))
		}
		if now.Sub(start)+next > time.Duration(cs.Seconds*float64(time.Second)) {
			return r, nil
		}
	}
}

// runPass makes one pass over workload name through the production entry
// points: sim.New and System.RunContext for single-run cells,
// experiments.NewLab and Experiment.Run for the campaign.
func runPass(ctx context.Context, name string, seed uint64, sz sizes, cold bool) (passResult, error) {
	if name == wCampaign {
		return runCampaignPass(ctx, seed, sz, cold)
	}
	var r passResult
	for _, c := range cellsOf(name, sz) {
		cr := cellResult{Label: c.label(), Workload: c.Workload, Design: c.Design.Name}
		if cold {
			// Collect the previous cell and hand its pages back to the OS,
			// so the cold set-up faults its memory in as a fresh process
			// would, rather than however many pages the previous cell
			// happened to leave free.
			debug.FreeOSMemory()
		}
		pinQuietCPU()
		var setup refClock
		setup.start()
		gen, err := c.build(seed)
		if err != nil {
			cr.Err = err.Error()
			r.Cells = append(r.Cells, cr)
			continue
		}
		s := sim.New(c.config(seed), c.Design)
		setup.lap()
		st := newSliceTimer(trace.Limit(gen, c.Accesses))
		res, err := s.RunContext(ctx, st, c.Accesses)
		clock := st.finish()
		if err != nil {
			cr.Err = fmt.Sprintf("run %s: %v", c.label(), err)
			r.Cells = append(r.Cells, cr)
			continue
		}
		r.Setup.add(setup)
		r.Run.add(clock)
		r.Accesses += res.Accesses
		cr.Cycles = res.Cycles
		cr.Digest = digest(res)
		r.Cells = append(r.Cells, cr)
	}
	return r, nil
}

// runCampaignPass renders fig10 cold into a fresh result store. Set-up is
// opening the store, NewLab and building the campaign's graph, which fills
// the process graph cache before the timed campaign (later passes find it
// there). The run is sliced at each cell's completion: fig10 asks for one
// cell at a time, on this goroutine, so the reference loop between slices
// runs on the simulating thread.
func runCampaignPass(ctx context.Context, seed uint64, sz sizes, cold bool) (passResult, error) {
	var r passResult
	if cold {
		debug.FreeOSMemory()
	}
	dir, err := tempDir("campaign")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	exp, err := experiments.ByID("fig10")
	if err != nil {
		return r, err
	}

	sc := sz.Campaign
	sc.Seed = seed
	pinQuietCPU()
	r.Setup.start()
	st, err := runner.OpenStore(dir)
	if err != nil {
		return r, err
	}
	var mu sync.Mutex
	done := func(tr runner.Transition) {
		if tr.Phase == runner.PhaseDone {
			mu.Lock()
			defer mu.Unlock()
			r.Run.lap()
		}
	}
	lab := experiments.NewLab(sc, experiments.WithContext(ctx), experiments.WithLifecycle(done),
		experiments.WithWorkers(runtime.NumCPU()), experiments.WithStore(st))
	if err := prewarmGraph(sc); err != nil {
		return r, err
	}
	r.Setup.lap()
	r.Run.start()
	_, runErr := exp.Run(lab)
	mu.Lock()
	r.Run.lap()
	mu.Unlock()
	if runErr != nil {
		return r, runErr
	}
	cells, accesses, err := storedCells(ctx, st)
	r.Cells, r.Accesses = cells, accesses
	return r, err
}

// prewarmGraph builds the scale's graph once so the process graph cache
// holds it before a campaign starts.
func prewarmGraph(sc experiments.Scale) error {
	gen, err := workloads.Build("DFS", workloads.Options{
		Threads: 4, Seed: sc.Seed, GraphNodes: sc.GraphNodes, GraphDegree: sc.GraphDegree})
	if err != nil {
		return err
	}
	trace.CloseIfCloser(gen)
	return nil
}

// storedCells digests every cell a campaign stored, in label order.
func storedCells(ctx context.Context, st *runner.Store) ([]cellResult, uint64, error) {
	idx := st.Index()
	sort.Slice(idx, func(i, j int) bool { return idx[i].Label < idx[j].Label })
	var cells []cellResult
	var accesses uint64
	for _, e := range idx {
		res, ok := st.Get(ctx, e.Key)
		if !ok {
			return cells, accesses, fmt.Errorf("stored cell %s unreadable", e.Label)
		}
		accesses += res.Accesses
		cells = append(cells, cellResult{Label: e.Label, Workload: e.Workload, Design: e.Design,
			Cycles: res.Cycles, Digest: digest(res)})
	}
	return cells, accesses, nil
}

// cosmosSpeedup is the geometric mean over workloads of
// cycles(MorphCtr)/cycles(COSMOS) on the tabular cells; 0 when the cells
// hold no such pair.
func cosmosSpeedup(cells []cellResult) float64 {
	morph := map[string]uint64{}
	cos := map[string]uint64{}
	for _, c := range cells {
		if c.Label != c.Workload+"_"+c.Design {
			continue // a policy or tweaked cell
		}
		switch c.Design {
		case "MorphCtr":
			morph[c.Workload] = c.Cycles
		case "COSMOS":
			cos[c.Workload] = c.Cycles
		}
	}
	var logSum float64
	n := 0
	for w, m := range morph {
		if c := cos[w]; c > 0 && m > 0 {
			logSum += math.Log(float64(m) / float64(c))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// tempDir makes a scratch directory under .bench_build in the working
// directory, so the benchmark writes nothing outside its checkout.
func tempDir(prefix string) (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return os.MkdirTemp(base, prefix+"-")
}

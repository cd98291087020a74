// Package experiments regenerates every table and figure of the paper's
// evaluation: each Fig*/Tab* function runs the required simulations and
// renders the same rows/series the paper reports.
//
// All simulations flow through the internal/runner orchestrator: results
// are memoised and deduplicated per canonical spec hash so composite
// figures share runs, a Lab built WithStore resumes a killed campaign from
// disk, and a Lab built WithContext aborts mid-simulation on cancellation.
//
// Absolute numbers differ from the paper's gem5 testbed; EXPERIMENTS.md
// records measured-vs-paper values and the shape checks.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"cosmos/internal/rl"
	"cosmos/internal/runner"
	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/stats"
)

// Scale sizes the experiments: the full scale reproduces the paper's
// regime (counter working sets far beyond every CTR cache); smaller scales
// run fast for tests and benchmarks.
type Scale struct {
	GraphNodes  int
	GraphDegree int
	Accesses    uint64
	Seed        uint64
	// Fig8Points are the access checkpoints of the Fig 8 learning curve.
	Fig8Points []uint64
}

// DefaultScale is the full reproduction scale (~seconds per run).
func DefaultScale() Scale {
	return Scale{
		GraphNodes:  2_000_000,
		GraphDegree: 8,
		Accesses:    2_000_000,
		Seed:        42,
		Fig8Points:  []uint64{400_000, 800_000, 1_200_000, 1_600_000, 2_000_000},
	}
}

// SmallScale runs each experiment in well under a second, for tests and
// testing.B benchmarks. Shapes soften at this scale but stay directional.
func SmallScale() Scale {
	return Scale{
		GraphNodes:  300_000,
		GraphDegree: 8,
		Accesses:    400_000,
		Seed:        42,
		Fig8Points:  []uint64{100_000, 200_000, 300_000, 400_000},
	}
}

// Scaled interpolates between SmallScale (factor 0) and beyond DefaultScale
// (factor ≥ 1) for the cosmos-bench -scale flag.
func Scaled(factor float64) Scale {
	if factor <= 0 {
		return SmallScale()
	}
	d := DefaultScale()
	d.GraphNodes = int(float64(d.GraphNodes) * factor)
	if d.GraphNodes < 50_000 {
		d.GraphNodes = 50_000
	}
	d.Accesses = uint64(float64(d.Accesses) * factor)
	if d.Accesses < 100_000 {
		d.Accesses = 100_000
	}
	d.Fig8Points = nil
	for i := 1; i <= 5; i++ {
		d.Fig8Points = append(d.Fig8Points, d.Accesses*uint64(i)/5)
	}
	return d
}

// Lab runs simulations for one Scale through the shared run orchestrator:
// results are memoised and singleflight-deduplicated per canonical spec
// hash, optionally persisted to a results directory for resume, and every
// simulation honours the lab's context.
//
// A Lab accumulates the first error any of its simulations hits (including
// cancellation); once failed, subsequent runs short-circuit so a cancelled
// campaign drains within a bounded number of simulation steps. Experiment.Run
// surfaces that error.
type Lab struct {
	Scale Scale

	ctx  context.Context
	orch *runner.Orchestrator

	dataPolicy *rl.PolicySpec
	ctrPolicy  *rl.PolicySpec

	// plan is non-nil on a planning lab (see Prewarm): runSpec records
	// each requested spec there instead of simulating it.
	plan *plan

	mu  sync.Mutex
	err error
	// warm holds the keys of the cells a Prewarm of this lab requested.
	warm map[string]bool
}

// LabOption configures NewLab.
type LabOption func(*labOptions)

type labOptions struct {
	ctx        context.Context
	workers    int
	store      *runner.Store
	lifecycle  func(runner.Transition)
	dataPolicy *rl.PolicySpec
	ctrPolicy  *rl.PolicySpec
}

// WithContext binds every simulation the lab runs to ctx: on cancellation
// the in-flight simulation stops within sim.CancelCheckEvery steps and all
// subsequent runs short-circuit.
func WithContext(ctx context.Context) LabOption {
	return func(o *labOptions) { o.ctx = ctx }
}

// WithWorkers bounds the lab's concurrent simulations (default: NumCPU).
func WithWorkers(n int) LabOption {
	return func(o *labOptions) { o.workers = n }
}

// WithStore persists every executed simulation into st and consults it
// before executing, so a second lab over the same directory resumes the
// campaign executing only the missing cells.
func WithStore(st *runner.Store) LabOption {
	return func(o *labOptions) { o.store = st }
}

// WithLifecycle forwards every run request's phase transitions (queued →
// running → done) to f — the feed behind live run tables and progress/ETA
// reporting. May be called concurrently.
func WithLifecycle(f func(runner.Transition)) LabOption {
	return func(o *labOptions) { o.lifecycle = f }
}

// WithPolicy swaps the predictors' decision engines for every simulation
// the lab runs: data/ctr select the data-location and CTR-locality policy
// (nil keeps the design's tabular default for that role). Policy-carrying
// runs hash differently from default runs — they are different machines —
// so stores keep both side by side; a lab with both policies nil produces
// byte-identical spec hashes to a lab without this option. A role applies
// only to designs that build its predictor (data: Early == EarlyPredicted;
// ctr: UseLCR), so the other designs' cells are the baseline cells.
func WithPolicy(data, ctr *rl.PolicySpec) LabOption {
	return func(o *labOptions) {
		o.dataPolicy = data
		o.ctrPolicy = ctr
	}
}

// NewLab creates a result-sharing experiment context.
func NewLab(sc Scale, opts ...LabOption) *Lab {
	o := labOptions{ctx: context.Background()}
	for _, opt := range opts {
		opt(&o)
	}
	l := &Lab{Scale: sc, ctx: o.ctx, dataPolicy: o.dataPolicy, ctrPolicy: o.ctrPolicy, warm: map[string]bool{}}
	l.orch = runner.New(runner.Options{Workers: o.workers, Store: o.store})
	l.orch.Lifecycle = o.lifecycle
	return l
}

// Orchestrator exposes the lab's run orchestrator (stats, telemetry
// registration, store access).
func (l *Lab) Orchestrator() *runner.Orchestrator { return l.orch }

// Err returns the first error any of the lab's simulations produced (nil
// while everything has succeeded).
func (l *Lab) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// fail records the first error; later errors are dropped.
func (l *Lab) fail(err error) {
	if err == nil {
		return
	}
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

// runOpts tweaks one simulation beyond the design defaults.
type runOpts struct {
	cores     int
	ctrBytes  int
	ctrPolicy string
	ctrPf     string
}

// spec translates (workload, design, opt) at the lab's scale into the
// orchestrator's canonical run spec.
func (l *Lab) spec(workload string, design secmem.Design, opt runOpts) runner.Spec {
	if opt.cores == 0 {
		opt.cores = 4
	}
	if opt.ctrBytes != 0 {
		design.CtrCacheBytes = opt.ctrBytes
	}
	if opt.ctrPolicy != "" {
		design.CtrPolicy = opt.ctrPolicy
	}
	if opt.ctrPf != "" {
		design.CtrPrefetcher = opt.ctrPf
	}
	spec := runner.Spec{
		Workload:    workload,
		Design:      design,
		Cores:       opt.cores,
		Accesses:    l.Scale.Accesses,
		GraphNodes:  l.Scale.GraphNodes,
		GraphDegree: l.Scale.GraphDegree,
		Seed:        l.Scale.Seed,
	}
	// A policy reaches a spec only through a predictor the design builds,
	// so designs without one (NP, MorphCtr, EMCC, RMCC) keep the baseline
	// spec and share its cell across policy campaigns.
	data, ctr := l.dataPolicy, l.ctrPolicy
	if design.Early != secmem.EarlyPredicted {
		data = nil
	}
	if !design.UseLCR {
		ctr = nil
	}
	if data != nil || ctr != nil {
		spec = withPolicies(spec, data, ctr)
	}
	return spec
}

// withPolicies rewrites a spec to carry the policy selections: the machine
// configuration the runner would derive implicitly is materialised (so the
// policies have a Params to live in) and the label records the policy
// kinds. Leaving both policies nil would still change the hash — Config
// non-nil is a different spec — which is why spec() only calls this when a
// policy is actually set.
func withPolicies(spec runner.Spec, data, ctr *rl.PolicySpec) runner.Spec {
	var cfg sim.Config
	if spec.Cores == 8 {
		cfg = sim.EightCore()
	} else {
		cfg = sim.DefaultConfig()
		cfg.Cores = spec.Cores
	}
	cfg.MC.Seed = spec.Seed
	cfg.MC.Params.Seed = spec.Seed
	cfg.MC.Params.DataPolicy = data
	cfg.MC.Params.CtrPolicy = ctr
	spec.Config = &cfg
	spec.Label = spec.Workload + "_" + spec.Design.Name + "_pol-" + policyTag(data, ctr)
	return spec
}

// policyTag summarises a policy pair for labels: kind names, "-" for a
// defaulted role.
func policyTag(data, ctr *rl.PolicySpec) string {
	one := func(sp *rl.PolicySpec) string {
		if sp == nil {
			return "-"
		}
		return sp.Kind
	}
	return one(data) + "." + one(ctr)
}

// runSpec executes (or recalls) one simulation through the orchestrator.
// On failure the error is recorded on the lab and zero Results return; the
// table generator keeps going but Experiment.Run discards its output. A
// planning lab records the spec and returns zero Results the same way.
func (l *Lab) runSpec(spec runner.Spec) sim.Results {
	if l.plan != nil {
		l.plan.add(spec)
		return sim.Results{}
	}
	if l.Err() != nil {
		return sim.Results{}
	}
	r, err := l.orch.Run(l.ctx, spec)
	if err != nil {
		l.fail(err)
		return sim.Results{}
	}
	return r
}

// run executes (or recalls) one workload × design simulation.
func (l *Lab) run(workload string, design secmem.Design, opt runOpts) sim.Results {
	return l.runSpec(l.spec(workload, design, opt))
}

// runCfg executes one simulation under a fully custom machine configuration
// (the ablation studies): cfg is hashed into the run's identity, so these
// cells memoise, deduplicate and resume exactly like the standard ones.
// label names the run for progress and telemetry files.
func (l *Lab) runCfg(workload, label string, design secmem.Design, cfg sim.Config, accesses uint64) sim.Results {
	return l.runSpec(runner.Spec{
		Workload:    workload,
		Design:      design,
		Cores:       cfg.Cores,
		Accesses:    accesses,
		GraphNodes:  l.Scale.GraphNodes,
		GraphDegree: l.Scale.GraphDegree,
		Seed:        l.Scale.Seed,
		Config:      &cfg,
		Label:       label,
	})
}

// perf returns performance normalised to the non-protected system
// (cycles_NP / cycles_design, 1.0 = NP speed), the metric of Figs 10 and
// 15-17.
func (l *Lab) perf(workload string, design secmem.Design, opt runOpts) float64 {
	np := l.run(workload, secmem.DesignNP(), opt)
	d := l.run(workload, design, opt)
	if d.Cycles == 0 {
		return 0
	}
	return float64(np.Cycles) / float64(d.Cycles)
}

// Run exposes one memoised simulation for external consumers.
func (l *Lab) Run(workload string, design secmem.Design) sim.Results {
	return l.run(workload, design, runOpts{})
}

// Experiment binds an id to its table generator.
type Experiment struct {
	ID    string
	Title string
	// Gen renders the experiment's table from the lab. Generators report
	// simulation failures through the lab (they never panic on them);
	// Experiment.Run is the error-aware entry point.
	Gen func(l *Lab) *stats.Table
}

// Run regenerates the experiment's table on the lab: it plans the cells
// with Prewarm, then renders. Any simulation error the lab hits — a bad
// workload spec, a worker panic (typed *runner.PanicError), or
// cancellation of the lab's context — is returned instead of a table. A
// lab that already failed returns that error immediately, so an
// interrupted `-exp all` campaign drains without starting new work.
func (e Experiment) Run(l *Lab) (*stats.Table, error) {
	if err := Prewarm(l, e); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
	}
	t := e.Gen(l)
	if err := l.Err(); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
	}
	return t, nil
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig2", "Memory traffic & CTR miss: NP vs MorphCtr (graph algorithms)", Fig2},
		{"fig3", "CTR cache size vs miss rate (DFS, PR, GC)", Fig3},
		{"fig4", "CTR access after L1 vs after LLC", Fig4},
		{"fig5", "Prefetchers & replacement policies on the CTR cache (DFS)", Fig5},
		{"tab1", "Reward values and hyper-parameters", Tab1},
		{"fig8", "Prediction correctness & CTR miss vs accesses (BFS, MLP)", Fig8},
		{"fig9", "CET size vs good-locality share & LCR-CTR miss rate (DFS)", Fig9},
		{"tab2", "Storage overhead of COSMOS", Tab2},
		{"tab3", "Simulation settings", Tab3},
		{"tab4", "COSMOS design variations", Tab4},
		{"fig10", "Performance normalised to NP (all designs)", Fig10},
		{"fig11", "CTR cache miss rate per design", Fig11},
		{"fig12", "Data location prediction distribution & accuracy", Fig12},
		{"fig13", "Good-locality CTR share: COSMOS vs COSMOS-CP", Fig13},
		{"fig14", "Secure Memory Access Time (SMAT)", Fig14},
		{"fig15", "Scalability: 4-core vs 8-core", Fig15},
		{"fig16", "COSMOS vs idealised EMCC", Fig16},
		{"fig17", "Regular ML workloads: MorphCtr vs COSMOS", Fig17},
		{"abl-layout", "Ablation: heap-scattered vs packed CSR layout", AblLayout},
		{"abl-traversal", "Ablation: MT traversal accounting", AblTraversal},
		{"abl-lcr", "Ablation: CTR replacement policies at equal capacity", AblLCR},
		{"abl-quant", "Ablation: float vs 8-bit Q-value decisions", AblQuantization},
		{"abl-mee", "Ablation: Bonsai/MorphCtr vs SGX-MEE-style metadata", AblMEE},
		{"abl-hyper", "Ablation: hyper-parameter sensitivity around Table 1", AblHyper},
		{"tab-power", "Area and power accounting (§4.6)", TabPower},
		{"ext-epc", "Extension: SGXv1-style secure-region sweep", ExtEPC},
	}
}

// ByID resolves one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids())
}

func ids() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

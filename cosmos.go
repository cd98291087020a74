// Package cosmos is the public API of the COSMOS reproduction — the
// RL-enhanced locality-aware counter-cache optimization for secure memory
// from "COSMOS: RL-Enhanced Locality-Aware Counter Cache Optimization for
// Secure Memory" (MICRO 2025).
//
// The package offers three layers:
//
//   - Simulation: Run / RunContext execute a workload on a secure-memory
//     design point (non-protected, MorphCtr, EMCC-like, COSMOS variants)
//     over the paper's 4-core machine and return the full metric set (IPC,
//     CTR cache behaviour, DRAM traffic decomposition, SMAT).
//
//   - Experiments: Experiments, RunExperiment and RunExperimentContext
//     regenerate the paper's tables and figures at a chosen scale, with
//     optional parallelism, persistent result storage (campaign resume)
//     and progress reporting.
//
//   - Functional secure memory: NewSecureMemory exposes a bit-accurate
//     AES-CTR + MAC + Merkle-tree protected memory with real tamper and
//     replay detection, the substrate the timing model abstracts.
//
// Every simulation flows through one run orchestrator: identical specs are
// deduplicated and memoised, results are deterministic (equal specs give
// bit-identical Results regardless of concurrency or caching), and
// cancellation through a context lands mid-simulation within a bounded
// number of steps.
//
// Quickstart:
//
//	r, _ := cosmos.Run(cosmos.RunSpec{Workload: "DFS", Design: "COSMOS", Accesses: 1e6})
//	fmt.Println(r.IPC, r.CtrMissRate)
package cosmos

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cosmos/internal/ctr"
	"cosmos/internal/enclave"
	"cosmos/internal/experiments"
	"cosmos/internal/runner"
	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/stats"
	"cosmos/internal/workloads"
)

// Results re-exports the simulator's metric bundle.
type Results = sim.Results

// RunSpec selects a simulation.
type RunSpec struct {
	// Workload is one of Workloads(): the eight graph algorithms (DFS,
	// BFS, GC, PR, TC, CC, SP, DC), the SPEC-like kernels (mcf, canneal,
	// omnetpp), or the ML models (MLP, AlexNet, ResNet, VGG, BERT,
	// Transformer, DLRM).
	Workload string
	// Design is one of Designs(): NP, MorphCtr, EMCC, Morph@L1,
	// COSMOS-DP, COSMOS-CP, COSMOS, RMCC.
	Design string
	// Accesses caps the simulation length (default 1,000,000).
	Accesses uint64
	// Cores selects 4 (default) or 8 cores (Fig 15's scaling study).
	Cores int
	// GraphNodes / GraphDegree size the synthetic graph for graph
	// workloads (defaults reproduce the paper's thrashing regime).
	GraphNodes  int
	GraphDegree int
	// Seed fixes all randomness; equal specs give identical Results.
	Seed uint64
}

// Workloads lists every runnable workload name. The order is stable across
// releases: graph algorithms first, then the SPEC-like kernels, then the ML
// models — the order tables and sweeps iterate in.
func Workloads() []string { return workloads.AllNames() }

// Designs lists every design point name, derived from the same registry
// that backs design resolution in Run — a design cannot appear here without
// being runnable, nor the reverse. The order is stable: baselines first
// (NP, MorphCtr, EMCC, Morph@L1), then the COSMOS variants (COSMOS-DP,
// COSMOS-CP, COSMOS), then the related-work point (RMCC).
func Designs() []string {
	all := secmem.AllDesigns()
	out := make([]string, len(all))
	for i, d := range all {
		out[i] = d.Name
	}
	return out
}

// orchestrator is the package-level run orchestrator behind Run and
// RunContext: repeated calls with equal specs are memoised and concurrent
// duplicates coalesce onto one simulation.
var (
	orchOnce sync.Once
	orch     *runner.Orchestrator
)

func orchestrator() *runner.Orchestrator {
	orchOnce.Do(func() { orch = runner.New(runner.Options{}) })
	return orch
}

// Run simulates one workload on one design and returns the metrics. It is
// RunContext with a background context.
//
// Deprecated: use RunContext, which adds cooperative cancellation for the
// same spec and results. Run remains a thin wrapper and will keep working.
func Run(spec RunSpec) (Results, error) {
	return RunContext(context.Background(), spec)
}

// RunContext simulates one workload on one design under ctx: on
// cancellation the simulation stops within a bounded number of steps and
// the error wraps ctx.Err(). Identical specs — including across concurrent
// callers — execute one simulation and share its (bit-identical) Results.
func RunContext(ctx context.Context, spec RunSpec) (Results, error) {
	if spec.Accesses == 0 {
		spec.Accesses = 1_000_000
	}
	if spec.Cores == 0 {
		spec.Cores = 4
	}
	if spec.Seed == 0 {
		spec.Seed = 42
	}
	design, err := secmem.DesignByName(spec.Design)
	if err != nil {
		return Results{}, err
	}
	return orchestrator().Run(ctx, runner.Spec{
		Workload:    spec.Workload,
		Design:      design,
		Cores:       spec.Cores,
		Accesses:    spec.Accesses,
		GraphNodes:  spec.GraphNodes,
		GraphDegree: spec.GraphDegree,
		Seed:        spec.Seed,
	})
}

// Compare runs the same workload under two designs and returns the speedup
// of b over a (cycles_a / cycles_b).
func Compare(workload, a, b string, accesses uint64) (float64, error) {
	ra, err := Run(RunSpec{Workload: workload, Design: a, Accesses: accesses})
	if err != nil {
		return 0, err
	}
	rb, err := Run(RunSpec{Workload: workload, Design: b, Accesses: accesses})
	if err != nil {
		return 0, err
	}
	if rb.Cycles == 0 {
		return 0, fmt.Errorf("cosmos: design %s executed no cycles", b)
	}
	return float64(ra.Cycles) / float64(rb.Cycles), nil
}

// Experiments lists the reproducible table/figure ids in paper order.
func Experiments() []string {
	var out []string
	for _, e := range experiments.All() {
		out = append(out, e.ID)
	}
	return out
}

// RunUpdate reports one completed simulation request of an experiment
// campaign to the ExperimentOpts.Progress callback.
type RunUpdate struct {
	// Label identifies the run (workload, design and tweaks).
	Label string
	// Source says where the result came from: "executed", "memoised",
	// "restored" (from ResultsDir) or "deduplicated" (coalesced onto an
	// identical in-flight run).
	Source string
	// QueueWait / ExecTime are non-zero for executed runs only.
	QueueWait time.Duration
	ExecTime  time.Duration
	// Err is non-nil when this run failed (the campaign then drains and
	// RunExperimentContext returns the first such error).
	Err error
}

// ExperimentOpts configures RunExperimentContext.
type ExperimentOpts struct {
	// Scale sizes the campaign: 1.0 is the full reproduction, smaller
	// values trade fidelity for speed (0 = smoke scale).
	Scale float64
	// Workers bounds concurrent simulations (0 = number of CPUs).
	Workers int
	// ResultsDir, when non-empty, persists every executed simulation to
	// that directory and consults it first, so a killed campaign rerun
	// with the same directory executes only the missing cells.
	ResultsDir string
	// Progress, when non-nil, receives a RunUpdate per completed
	// simulation request: one per distinct cell from the planning pass,
	// then one per request of the render, which finds every cell memoised.
	// It may be called concurrently.
	Progress func(RunUpdate)
}

// RunExperiment regenerates one paper table or figure. scale 1.0 is the
// full reproduction; smaller values trade fidelity for speed (0 = smoke).
// It is RunExperimentContext with a background context and default options.
//
// Deprecated: use RunExperimentContext, which adds cancellation, worker
// bounds, persistent resume and progress reporting for the same output.
// RunExperiment remains a thin wrapper and will keep working.
func RunExperiment(id string, scale float64) (*stats.Table, error) {
	return RunExperimentContext(context.Background(), id, ExperimentOpts{Scale: scale})
}

// RunExperimentContext regenerates one paper table or figure under ctx. It
// plans, then renders: every distinct cell the experiment requests runs
// first, opts.Workers at a time, and the table is then rendered from the
// memoised results. Simulation failures — a cancelled context, a bad
// workload, a panicking model component — surface as the returned error
// instead of a partial table.
func RunExperimentContext(ctx context.Context, id string, opts ExperimentOpts) (*stats.Table, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	lopts := []experiments.LabOption{experiments.WithContext(ctx)}
	if opts.Workers > 0 {
		lopts = append(lopts, experiments.WithWorkers(opts.Workers))
	}
	if opts.ResultsDir != "" {
		st, err := runner.OpenStore(opts.ResultsDir)
		if err != nil {
			return nil, err
		}
		lopts = append(lopts, experiments.WithStore(st))
	}
	if p := opts.Progress; p != nil {
		// Every request ends in exactly one PhaseDone transition.
		lopts = append(lopts, experiments.WithLifecycle(func(t runner.Transition) {
			if t.Phase != runner.PhaseDone {
				return
			}
			p(RunUpdate{
				Label:     t.Label,
				Source:    t.Source.String(),
				QueueWait: t.QueueWait,
				ExecTime:  t.ExecTime,
				Err:       t.Err,
			})
		}))
	}
	// e.Run plans the experiment's cells, then renders it.
	return e.Run(experiments.NewLab(experiments.Scaled(opts.Scale), lopts...))
}

// SecureMemory is the functional AES-CTR + MAC + Merkle-tree protected
// memory (see internal/enclave): real encryption, real integrity
// verification, real replay detection.
type SecureMemory = enclave.Memory

// Line is one 64-byte protected block.
type Line = enclave.Line

// NewSecureMemory creates a protected memory of size bytes under a 16-byte
// AES key with MorphCtr counters.
func NewSecureMemory(size uint64, key []byte) (*SecureMemory, error) {
	return enclave.New(size, key, ctr.Morph())
}

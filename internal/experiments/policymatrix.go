package experiments

import (
	"fmt"

	"cosmos/internal/policytrain"
	"cosmos/internal/rl"
	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/stats"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

// policyMatrixWorkloads are the workloads policies are trained on; every
// trained pair is then served on every one of them, so the diagonal is
// in-distribution and the off-diagonal cells measure generalization.
var policyMatrixWorkloads = []string{"mcf", "DFS"}

// PolicyMatrix runs the policy zoo's train-on-A/serve-on-B generalization
// matrix: an online-tabular COSMOS run on workload A records both
// predictors' transition streams, offline perceptrons are trained on them
// (one per role) and frozen, and the frozen pair is deployed on every
// workload B. Serve runs flow through the orchestrator (memoised, stored,
// resumable — the frozen weights enter the spec hash); baseline-perf is
// the same workload under COSMOS's default online tabular policies.
func PolicyMatrix(l *Lab) *stats.Table {
	t := stats.NewTable("Policy zoo: train-on-A / serve-on-B (COSMOS, frozen perceptrons, both roles)",
		"trained-on", "served-on", "data-agree", "ctr-agree", "perf-vs-NP", "baseline-perf", "ctr-miss")
	if l.planning() {
		// The recording runs simulate outside the lab and the serve cells
		// hash their trained weights: only the baselines plan.
		for _, w := range policyMatrixWorkloads {
			l.perf(w, secmem.DesignCosmos(), runOpts{})
		}
		return t
	}
	for _, trainOn := range policyMatrixWorkloads {
		if l.Err() != nil || l.canceled() {
			break
		}
		pair, err := l.trainPerceptrons(trainOn)
		if err != nil {
			l.fail(err)
			break
		}
		for _, serveOn := range policyMatrixWorkloads {
			if l.Err() != nil {
				break
			}
			base := l.spec(serveOn, secmem.DesignCosmos(), runOpts{})
			served := l.runSpec(l.withPolicies(base, pair.data.spec(), pair.ctr.spec()))
			np := l.run(serveOn, secmem.DesignNP(), runOpts{})
			perf := 0.0
			if served.Cycles != 0 {
				perf = float64(np.Cycles) / float64(served.Cycles)
			}
			t.Row(trainOn, serveOn,
				stats.Pct(pair.data.stats.Agreement), stats.Pct(pair.ctr.stats.Agreement),
				fmt.Sprintf("%.3f", perf),
				fmt.Sprintf("%.3f", l.perf(serveOn, secmem.DesignCosmos(), runOpts{})),
				stats.Pct(served.CtrMissRate))
		}
	}
	return t
}

// trainedPolicy is one frozen role of a trained pair.
type trainedPolicy struct {
	snapshot rl.Snapshot
	stats    policytrain.Stats
}

func (tp *trainedPolicy) spec() *rl.PolicySpec {
	return &rl.PolicySpec{Kind: tp.snapshot.Kind, Frozen: &tp.snapshot}
}

type trainedPair struct {
	data, ctr trainedPolicy
}

// trainPerceptrons records both predictors' transition streams from one
// online tabular COSMOS run on the workload, trains a perceptron per role
// offline, and returns the pair with provenance stamped. The recording run
// bypasses the orchestrator (its product is the transition streams, not
// Results) but honours the lab's context.
func (l *Lab) trainPerceptrons(workload string) (trainedPair, error) {
	var pair trainedPair
	gen, err := workloads.Build(workload, workloads.Options{
		Threads:     4,
		Seed:        l.Scale.Seed,
		GraphNodes:  l.Scale.GraphNodes,
		GraphDegree: l.Scale.GraphDegree,
	})
	if err != nil {
		return pair, fmt.Errorf("experiments: policy-matrix: %w", err)
	}
	cfg := sim.DefaultConfig()
	cfg.MC.Seed = l.Scale.Seed
	cfg.MC.Params.Seed = l.Scale.Seed
	s := sim.New(cfg, secmem.DesignCosmos())
	streams := map[string]*[]policytrain.Record{
		policytrain.RoleData: {},
		policytrain.RoleCtr:  {},
	}
	record := func(role string) func(rl.Transition) {
		recs := streams[role]
		return func(tr rl.Transition) {
			*recs = append(*recs, policytrain.Record{Role: role, Transition: tr})
		}
	}
	s.MC().DataPred.AttachRecorder(record(policytrain.RoleData))
	s.MC().CtrPred.AttachRecorder(record(policytrain.RoleCtr))
	if _, err := s.RunContext(l.ctx, trace.Limit(gen, l.Scale.Accesses), l.Scale.Accesses); err != nil {
		return pair, fmt.Errorf("experiments: policy-matrix: record %s: %w", workload, err)
	}
	for role, out := range map[string]*trainedPolicy{
		policytrain.RoleData: &pair.data,
		policytrain.RoleCtr:  &pair.ctr,
	} {
		recs := *streams[role]
		if len(recs) == 0 {
			return pair, fmt.Errorf("experiments: policy-matrix: %s produced no %s transitions", workload, role)
		}
		p, err := rl.NewPolicy(rl.PolicySpec{Kind: rl.KindPerceptron}, l.Scale.Seed)
		if err != nil {
			return pair, fmt.Errorf("experiments: policy-matrix: %w", err)
		}
		st := policytrain.Train(p, recs, 2)
		sn := p.Snapshot()
		sn.Meta.Role = role
		sn.Meta.TrainedOn = workload
		sn.Meta.Transitions = st.Transitions * st.Epochs
		*out = trainedPolicy{snapshot: sn, stats: st}
	}
	return pair, nil
}

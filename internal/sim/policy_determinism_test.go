package sim

import (
	"reflect"
	"testing"

	"cosmos/internal/rl"
	"cosmos/internal/secmem"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

// policyRun executes one COSMOS simulation with the given policy pair on
// both predictor roles.
func policyRun(t *testing.T, data, ctr *rl.PolicySpec) Results {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MC.Seed = 42
	cfg.MC.Params.Seed = 42
	cfg.MC.Params.DataPolicy = data
	cfg.MC.Params.CtrPolicy = ctr
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	gen, err := workloads.Build("DFS", workloads.Options{
		Threads: 4, Seed: 42, GraphNodes: 60000, GraphDegree: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg, secmem.DesignCosmos())
	return s.Run(trace.Limit(gen, 150000), 150000)
}

// TestOnlinePolicyDeterminism pins the policy zoo's core guarantee: the
// learning perceptron and MLP are exploration-free deterministic learners,
// so repeated runs are bit-identical — seed-sensitivity is confined to the
// tabular kind's ε-greedy stream.
func TestOnlinePolicyDeterminism(t *testing.T) {
	for _, kind := range []string{rl.KindPerceptron, rl.KindMLP} {
		t.Run(kind, func(t *testing.T) {
			spec := &rl.PolicySpec{Kind: kind}
			base := policyRun(t, spec, spec)
			if again := policyRun(t, spec, spec); !reflect.DeepEqual(again, base) {
				t.Errorf("online %s drifted across runs", kind)
			}
		})
	}
}

package rl

import (
	"fmt"

	"cosmos/internal/telemetry"
)

// Agent couples a Q-table with ε-greedy action selection and a fixed
// (α, γ, ε) hyper-parameter triple. Both COSMOS predictors default to Agents
// over a two-action space; Agent is the "tabular" Policy kind.
type Agent struct {
	Table   *QTable
	Alpha   float64
	Gamma   float64
	Epsilon float64

	rng *Rand

	// Explorations counts how many actions were chosen randomly rather
	// than greedily — exposed for the effectiveness studies (§6.1.2).
	Explorations uint64
	Decisions    uint64
}

var _ Policy = (*Agent)(nil)

// NewAgent constructs an agent with its own deterministic exploration stream.
func NewAgent(table *QTable, alpha, gamma, epsilon float64, seed uint64) *Agent {
	return &Agent{Table: table, Alpha: alpha, Gamma: gamma, Epsilon: epsilon, rng: NewRand(seed)}
}

// Kind implements Policy.
func (ag *Agent) Kind() string { return KindTabular }

// Act hashes the key into the table's state space and returns the ε-greedy
// decision for it.
func (ag *Agent) Act(key uint64) Decision {
	s := HashState(key, ag.Table.States())
	return Decision{State: s, Action: ag.ActState(s)}
}

// ActState returns the ε-greedy action for an already-derived state index s:
// with probability ε a uniform random action (exploration), otherwise the
// argmax of the Q-row. Act is ActState after HashState; callers that need
// the classic state-indexed form (tests, the quantization ablation) use this
// directly.
func (ag *Agent) ActState(s int) int {
	ag.Decisions++
	if ag.Epsilon > 0 && ag.rng.Float64() < ag.Epsilon {
		ag.Explorations++
		return ag.rng.Intn(ag.Table.Actions())
	}
	a, _ := ag.Table.Best(s)
	return a
}

// Learn applies the TD update with the agent's α and γ. t.Next is the
// bootstrap value from the successor state (see QTable.Update).
func (ag *Agent) Learn(t Transition) {
	ag.Table.Update(t.State, t.Action, t.Reward, t.Next, ag.Alpha, ag.Gamma)
}

// Value returns Q(state, action); the key is unused (the tabular policy's
// estimate depends only on the derived state).
func (ag *Agent) Value(_ uint64, state, action int) float64 {
	return ag.Table.Q(state, action)
}

// Score returns the quantized unsigned confidence of (state, action).
func (ag *Agent) Score(_ uint64, state, action int) uint8 {
	return ag.Table.Score(state, action)
}

// StorageBits reports the table's hardware cost.
func (ag *Agent) StorageBits() int { return ag.Table.StorageBits() }

// Snapshot serialises the agent's table and hyper-parameters.
func (ag *Agent) Snapshot() Snapshot {
	t := ag.Table
	w := make([]byte, 0, len(t.q)*8)
	for _, v := range t.q {
		w = appendFloat64(w, v)
	}
	return Snapshot{
		Kind: KindTabular,
		Meta: SnapshotMeta{
			States:  t.states,
			Actions: t.actions,
			Alpha:   ag.Alpha,
			Gamma:   ag.Gamma,
			Epsilon: ag.Epsilon,
		},
		Weights: w,
	}
}

// Restore loads a tabular snapshot produced by Snapshot, replacing the
// agent's table and hyper-parameters.
func (ag *Agent) Restore(sn Snapshot) error {
	if sn.Kind != KindTabular {
		return fmt.Errorf("rl: cannot restore %q snapshot into tabular agent", sn.Kind)
	}
	states, actions := sn.Meta.States, sn.Meta.Actions
	if states <= 0 || states&(states-1) != 0 {
		return fmt.Errorf("rl: tabular snapshot states %d must be a positive power of two", states)
	}
	if actions <= 0 {
		return fmt.Errorf("rl: tabular snapshot actions %d must be positive", actions)
	}
	if want := states * actions * 8; len(sn.Weights) != want {
		return fmt.Errorf("rl: tabular snapshot has %d weight bytes, want %d", len(sn.Weights), want)
	}
	t := NewQTable(states, actions)
	for i := range t.q {
		t.q[i] = float64At(sn.Weights, i)
	}
	ag.Table = t
	ag.Alpha = sn.Meta.Alpha
	ag.Gamma = sn.Meta.Gamma
	ag.Epsilon = sn.Meta.Epsilon
	return nil
}

// RegisterMetrics registers the agent's decision counters, the observed
// per-interval exploration rate, the configured ε, and the Q-table state
// coverage under the given telemetry scope.
func (ag *Agent) RegisterMetrics(s *telemetry.Scope) {
	s.Counter("decisions", &ag.Decisions)
	s.Counter("explorations", &ag.Explorations)
	s.RateOf("exploration_rate", &ag.Explorations, &ag.Decisions)
	s.Gauge("epsilon", func() float64 { return ag.Epsilon })
	s.Gauge("q_coverage", ag.Table.Coverage)
}

// ExplorationRate reports the observed fraction of random actions.
func (ag *Agent) ExplorationRate() float64 {
	if ag.Decisions == 0 {
		return 0
	}
	return float64(ag.Explorations) / float64(ag.Decisions)
}

package rl

import (
	"fmt"
	"strings"

	"cosmos/internal/telemetry"
)

// Policy is the learned-decision abstraction both COSMOS predictor roles
// (data location, CTR locality) are built on. A policy maps a raw key — the
// physical address for the data predictor, the counter-block index shifted
// to address form for the locality predictor — to a two-action decision,
// and learns from scalar-reward transitions.
//
// The key-based signature (rather than a pre-hashed state index) is what
// lets non-tabular policies derive multiple features from the same input:
// the tabular agent hashes the key into its single state index internally
// with exactly the arithmetic the predictors used to run, so refactoring
// them onto this interface is bit-identical; the perceptron and MLP hash
// the key several ways.
//
// All implementations are deterministic: the same construction parameters
// and the same call sequence produce the same decisions on every platform
// (the non-tabular policies use integer-only inference for exactly this
// reason).
type Policy interface {
	// Kind returns the registry name ("tabular", "perceptron", "mlp").
	Kind() string
	// Act returns the decision for a key: the derived state index (what the
	// CET records) and the chosen action.
	Act(key uint64) Decision
	// Learn applies one transition.
	Learn(t Transition)
	// Value returns the policy's estimate for (key, state, action) — the
	// bootstrap term the predictors feed back into later transitions.
	Value(key uint64, state, action int) float64
	// Score maps the decision's confidence onto the unsigned 8-bit scale the
	// LCR-CTR cache stores per line (128 = neutral).
	Score(key uint64, state, action int) uint8
	// Snapshot copies out the policy's shape and weights; Restore loads one
	// previously produced by the same kind. The differential tests compare
	// packed weights with their reference models through them.
	Snapshot() Snapshot
	Restore(sn Snapshot) error
	// StorageBits reports the hardware cost of the policy's state in bits,
	// comparable across kinds (the tournament's x-axis).
	StorageBits() int
	// ExplorationRate reports the observed fraction of random decisions
	// (always 0 for the deterministic non-tabular policies).
	ExplorationRate() float64
	// RegisterMetrics exposes the policy's counters under a telemetry scope.
	RegisterMetrics(s *telemetry.Scope)
}

// Decision is one Act outcome: the state index derived from the key (stored
// in the CET so later grading can reference it) and the chosen action.
type Decision struct {
	State  int
	Action int
}

// Transition is one learning sample: the key and decision it grades, the
// scalar reward, and the bootstrap value of the successor decision.
type Transition struct {
	Key    uint64
	State  int
	Action int
	Reward float64
	Next   float64
}

// Policy kind names.
const (
	KindTabular    = "tabular"
	KindPerceptron = "perceptron"
	KindMLP        = "mlp"
)

// PolicyKinds lists the registered policy kinds in presentation order.
func PolicyKinds() []string {
	return []string{KindTabular, KindPerceptron, KindMLP}
}

// PolicyKindDescriptions maps each kind to its one-line description (the
// -list-policies output).
func PolicyKindDescriptions() []struct{ Kind, Desc string } {
	return []struct{ Kind, Desc string }{
		{KindTabular, "tabular Q-learning with ε-greedy exploration (the paper's design; Table 1/2)"},
		{KindPerceptron, "hashed multi-feature perceptron, saturating 8-bit integer weights"},
		{KindMLP, "fixed-point two-layer MLP, int16 weights, shift-based integer inference"},
	}
}

// PolicySpec selects and parameterises a Policy. A nil *PolicySpec in a
// configuration means "the tabular default built from the surrounding
// parameters" — and, because every embedding struct tags the pointer
// `json:",omitempty"`, the nil case encodes to nothing, keeping every
// pre-policy runner spec hash (and the result stores keyed by them) intact.
//
// Zero hyper-parameter fields take the kind's defaults, so {Kind:
// "perceptron"} is a complete spec.
type PolicySpec struct {
	Kind string `json:"kind"`

	// Tabular hyper-parameters.
	Alpha   float64 `json:"alpha,omitempty"`
	Gamma   float64 `json:"gamma,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
	// States sizes the tabular Q-table (power of two; default 16384).
	States int `json:"states,omitempty"`

	// Perceptron shape: Features hashed feature tables of Buckets entries
	// each; Theta is the training margin.
	Features int `json:"features,omitempty"`
	Buckets  int `json:"buckets,omitempty"`
	Theta    int `json:"theta,omitempty"`

	// MLP shape: Inputs hashed input features, Hidden units.
	Inputs int `json:"inputs,omitempty"`
	Hidden int `json:"hidden,omitempty"`
}

// Validate rejects specs NewPolicy cannot build, with errors naming the
// offending field; an unknown kind lists every valid one (same UX as the
// design/workload registries).
func (sp *PolicySpec) Validate() error {
	if sp == nil {
		return nil
	}
	switch sp.Kind {
	case KindTabular, KindPerceptron, KindMLP:
	case "":
		return fmt.Errorf("rl: policy spec has empty kind (valid: %s)",
			strings.Join(PolicyKinds(), ", "))
	default:
		return fmt.Errorf("rl: unknown policy kind %q (valid: %s)",
			sp.Kind, strings.Join(PolicyKinds(), ", "))
	}
	if sp.States != 0 && (sp.States < 0 || sp.States&(sp.States-1) != 0) {
		return fmt.Errorf("rl: policy states %d must be a positive power of two", sp.States)
	}
	if sp.Buckets != 0 && (sp.Buckets < 0 || sp.Buckets&(sp.Buckets-1) != 0) {
		return fmt.Errorf("rl: policy buckets %d must be a positive power of two", sp.Buckets)
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"features", sp.Features}, {"theta", sp.Theta},
		{"inputs", sp.Inputs}, {"hidden", sp.Hidden},
	} {
		if f.v < 0 {
			return fmt.Errorf("rl: policy %s %d must not be negative", f.name, f.v)
		}
	}
	return nil
}

// NewPolicy builds the policy a spec describes. seed feeds the kind's
// deterministic initialisation (exploration stream for tabular, weight
// init for the MLP).
func NewPolicy(sp PolicySpec, seed uint64) (Policy, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	switch sp.Kind {
	case KindTabular:
		states := sp.States
		if states == 0 {
			states = 16384
		}
		alpha, gamma, eps := sp.Alpha, sp.Gamma, sp.Epsilon
		if alpha == 0 {
			alpha = 0.09
		}
		if gamma == 0 {
			gamma = 0.88
		}
		return NewAgent(NewQTable(states, 2), alpha, gamma, eps, seed), nil
	case KindPerceptron:
		return NewPerceptron(sp.Features, sp.Buckets, int32(sp.Theta)), nil
	case KindMLP:
		return NewMLP(sp.Inputs, sp.Hidden, seed), nil
	}
	return nil, fmt.Errorf("rl: unknown policy kind %q (valid: %s)",
		sp.Kind, strings.Join(PolicyKinds(), ", "))
}

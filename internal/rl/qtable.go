package rl

import "fmt"

// QTable stores Q(s, a) for a discrete state/action space. Learning runs in
// float64 for numerical fidelity; Quantize and the Quantized type model the
// 8-bit saturating hardware representation from Table 2 (two 8-bit Q-values
// per 16-bit entry).
type QTable struct {
	states  int
	actions int
	q       []float64 // row-major [state][action]
}

// NewQTable allocates a zero-initialised table. states must be a power of
// two (it is indexed by HashState); actions is typically 2.
func NewQTable(states, actions int) *QTable {
	if states <= 0 || states&(states-1) != 0 {
		panic(fmt.Sprintf("rl: states must be a positive power of two, got %d", states))
	}
	if actions <= 0 {
		panic("rl: actions must be positive")
	}
	return &QTable{states: states, actions: actions, q: make([]float64, states*actions)}
}

// States returns the number of states.
func (t *QTable) States() int { return t.states }

// Actions returns the number of actions.
func (t *QTable) Actions() int { return t.actions }

// Q returns Q(s, a).
func (t *QTable) Q(s, a int) float64 { return t.q[s*t.actions+a] }

// SetQ overwrites Q(s, a); used by tests and by table import.
func (t *QTable) SetQ(s, a int, v float64) { t.q[s*t.actions+a] = v }

// Best returns the greedy action for state s and its Q-value. Ties break
// toward the lower-numbered action, which keeps behaviour deterministic.
func (t *QTable) Best(s int) (action int, q float64) {
	base := s * t.actions
	action, q = 0, t.q[base]
	for a := 1; a < t.actions; a++ {
		if t.q[base+a] > q {
			action, q = a, t.q[base+a]
		}
	}
	return action, q
}

// Update applies the temporal-difference rule
//
//	Q(s,a) ← Q(s,a) + α [ r + γ·next − Q(s,a) ]
//
// where next is the caller's bootstrap value (Q(S2,A2) in Algorithm 1,
// max_a Q(S,a) in Algorithm 3). Values saturate at ±QClamp to mirror the
// bounded hardware registers.
func (t *QTable) Update(s, a int, r, next, alpha, gamma float64) {
	i := s*t.actions + a
	q := t.q[i]
	q += alpha * (r + gamma*next - q)
	if q > QClamp {
		q = QClamp
	} else if q < -QClamp {
		q = -QClamp
	}
	t.q[i] = q
}

// QClamp bounds learned Q-values. The hardware stores 8-bit signed scores;
// we clamp the float representation to the same dynamic range so the two
// implementations agree on decisions.
const QClamp = 127

// Quantize returns the 8-bit signed hardware representation of Q(s,a).
func (t *QTable) Quantize(s, a int) int8 {
	v := t.Q(s, a)
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return int8(v)
}

// Score returns the locality score used by the LCR cache: the quantized
// Q-value of the chosen action rebased to an unsigned 8-bit magnitude
// (0..255). Higher means the predictor was more confident.
func (t *QTable) Score(s, a int) uint8 {
	return uint8(int16(t.Quantize(s, a)) + 128)
}

// Coverage reports the fraction of states whose Q-row has been touched by
// at least one update (any non-zero Q-value). It is the telemetry signal
// for "how much of the state space has the agent actually visited" —
// convergence shows up as coverage flattening out.
func (t *QTable) Coverage() float64 {
	if t.states == 0 {
		return 0
	}
	visited := 0
	for s := 0; s < t.states; s++ {
		base := s * t.actions
		for a := 0; a < t.actions; a++ {
			if t.q[base+a] != 0 {
				visited++
				break
			}
		}
	}
	return float64(visited) / float64(t.states)
}

// StorageBits reports the hardware storage cost of the table in bits,
// assuming 8 bits per Q-value as in Table 2 of the paper.
func (t *QTable) StorageBits() int { return t.states * t.actions * 8 }

package rl

import (
	"fmt"

	"cosmos/internal/telemetry"
)

// MLP defaults. 16 inputs × 8 hidden × 2 outputs at 16-bit weights is
// (16·8 + 8 + 8·2 + 2) × 16 ≈ 2.5 Kbit — the cheapest policy in the zoo.
const (
	defaultMLPInputs = 16
	defaultMLPHidden = 8
	mlpActions       = 2
	mlpWeightMax     = 127 // saturation bound for every weight and bias
	mlpActShift      = 2   // hidden pre-activation >> shift, the "activation"
	mlpActMax        = 127 // post-shift activation clamp
	mlpStateMask     = 16383
)

// MLP is a small two-layer network evaluated entirely in fixed-point
// integer arithmetic: ±1 input features hashed from the key, a hidden layer
// whose ReLU is a right-shift plus clamp, and a two-way output argmax.
// Weights are int16, saturating at ±127; training is a sign-sign delta rule.
// No float ever enters inference or learning, so decisions are identical on
// every platform — the property the determinism tests pin.
//
// Weight initialisation is seeded through SplitMix64, so two MLPs built
// with the same (inputs, hidden, seed) triple are identical.
type MLP struct {
	inputs int
	hidden int
	seed   uint64
	// Parameters, all clamped to ±mlpWeightMax:
	w1     []int16 // [hidden][inputs]
	b1     []int16 // [hidden]
	w2     []int16 // [action][hidden]
	b2     []int16 // [action]
	frozen bool

	Decisions uint64
	Updates   uint64

	// ver is the weight version: every write to w1/b1/w2/b2 bumps it, so a
	// memo entry computed at an older version is known to be stale.
	ver  uint64
	memo [memoEntries]mlpEntry
	mru  int // memo index touched last; the other one is the victim
}

// memoEntries sizes the per-policy forward-pass memo. Two entries cover the
// predictors' per-access call patterns: the data predictor revisits one key
// (Act, then Value and Learn), the locality predictor interleaves its own
// key with the CET head and the evicted block.
const memoEntries = 2

// mlpEntry memoizes one key's forward pass. The features and state tag are
// a function of the key alone and stay valid for as long as the entry holds
// that key; the hidden activations and outputs are valid only while the
// weights are still at version ver.
type mlpEntry struct {
	key    uint64
	used   bool
	state  int
	x      []int32 // input features, ±1
	ver    uint64
	a      []int32 // hidden activations
	o0, o1 int32
}

var _ Policy = (*MLP)(nil)

// NewMLP constructs a deterministically initialised MLP. Zero dimensions
// take the defaults.
func NewMLP(inputs, hidden int, seed uint64) *MLP {
	if inputs == 0 {
		inputs = defaultMLPInputs
	}
	if hidden == 0 {
		hidden = defaultMLPHidden
	}
	if inputs < 0 || hidden < 0 {
		panic(fmt.Sprintf("rl: mlp dimensions must be positive, got inputs=%d hidden=%d", inputs, hidden))
	}
	m := &MLP{inputs: inputs, hidden: hidden, seed: seed}
	m.alloc()
	m.init()
	return m
}

func (m *MLP) alloc() {
	m.w1 = make([]int16, m.hidden*m.inputs)
	m.b1 = make([]int16, m.hidden)
	m.w2 = make([]int16, mlpActions*m.hidden)
	m.b2 = make([]int16, mlpActions)
	slab := make([]int32, memoEntries*(m.inputs+m.hidden))
	for i := range m.memo {
		x, rest := slab[:m.inputs:m.inputs], slab[m.inputs:]
		a := rest[:m.hidden:m.hidden]
		slab = rest[m.hidden:]
		m.memo[i] = mlpEntry{x: x, a: a}
	}
	m.mru = 0
}

// init fills the first layer with small seeded weights in [-8, 7] (the
// second layer starts at zero, so an untrained MLP is unbiased between
// actions and ties break toward action 0).
func (m *MLP) init() {
	s := m.seed ^ 0x3117a9e5b1c60000
	for i := range m.w1 {
		s += 0x9e3779b97f4a7c15
		m.w1[i] = int16(SplitMix64(s)&15) - 8
	}
	clear(m.b1)
	clear(m.w2)
	clear(m.b2)
	m.ver++
}

// mlpFeature extracts input i as ±1 from a salted hash of the key, each
// input looking at a different address granularity (same scheme as the
// perceptron's buckets, one bit instead of one counter).
func mlpFeature(i int, key uint64) int32 {
	shift := uint(6 + i%8)
	h := SplitMix64((key>>shift)*featureSalts[i%len(featureSalts)] + uint64(i))
	return int32(h&1)*2 - 1
}

// forward returns key's memo entry with its outputs at the current weight
// version: a hit on the same key and version costs nothing, a hit on the
// same key after a weight write re-runs only the layers, and a miss also
// hashes the features, evicting the less recently used entry.
func (m *MLP) forward(key uint64) *mlpEntry {
	e := &m.memo[m.mru]
	if !e.used || e.key != key {
		m.mru ^= 1
		e = &m.memo[m.mru]
		if !e.used || e.key != key {
			e.key, e.used = key, true
			e.state = int(SplitMix64(key) & mlpStateMask)
			for i := range e.x {
				e.x[i] = mlpFeature(i, key)
			}
			e.ver = m.ver - 1 // stale: evaluate below
		}
	}
	if e.ver != m.ver {
		m.eval(e)
	}
	return e
}

// eval runs integer inference over e's features at the current weights.
// Each row is re-sliced to the feature count and each feature is ±1, so the
// inner loop is a multiply-add with neither bounds checks nor a sign branch.
func (m *MLP) eval(e *mlpEntry) {
	x, act := e.x, e.a
	b1 := m.b1[:len(act)]
	for j := range act {
		row := m.w1[j*len(x):][:len(x)]
		acc := int32(b1[j])
		for i, w := range row {
			acc += int32(w) * x[i]
		}
		act[j] = min(max(acc, 0)>>mlpActShift, mlpActMax)
	}
	w20 := m.w2[:len(act)]
	w21 := m.w2[len(act):][:len(act)]
	o0, o1 := int32(m.b2[0]), int32(m.b2[1])
	for j, a := range act {
		o0 += int32(w20[j]) * a
		o1 += int32(w21[j]) * a
	}
	e.o0, e.o1, e.ver = o0, o1, m.ver
}

// Kind implements Policy.
func (m *MLP) Kind() string { return KindMLP }

// Act runs inference and returns the argmax action; ties break toward the
// lower action, matching the Q-table convention. The state is a stable
// hashed tag of the key.
func (m *MLP) Act(key uint64) Decision {
	m.Decisions++
	e := m.forward(key)
	a := 0
	if e.o1 > e.o0 {
		a = 1
	}
	return Decision{State: e.state, Action: a}
}

// Learn applies a sign-sign update toward the reward-implied target action
// (taken action if rewarded, its complement if punished): the second layer
// moves each active hidden unit's weight toward the target output, and the
// first layer nudges active units' weights along the input signs.
func (m *MLP) Learn(t Transition) {
	if m.frozen || t.Reward == 0 {
		return
	}
	want := t.Action
	if t.Reward < 0 {
		want = 1 - want
	}
	e := m.forward(t.Key)
	pred := 0
	if e.o1 > e.o0 {
		pred = 1
	}
	if pred == want {
		return
	}
	m.Updates++
	m.ver++
	x, act := e.x, e.a
	b1 := m.b1[:len(act)]
	wantRow := m.w2[want*len(act):][:len(act)]
	otherRow := m.w2[(1-want)*len(act):][:len(act)]
	for j, a := range act {
		if a > 0 {
			wantRow[j] = satAdd16(wantRow[j], 1)
			otherRow[j] = satAdd16(otherRow[j], -1)
		}
		// First layer: push units the target output weights positively to
		// fire (and vice versa), following each input's sign.
		var d int16
		switch {
		case wantRow[j] > otherRow[j]:
			d = 1
		case wantRow[j] < otherRow[j]:
			d = -1
		default:
			continue
		}
		row := m.w1[j*len(x):][:len(x)]
		for i, w := range row {
			row[i] = satAdd16(w, d*int16(x[i]))
		}
		b1[j] = satAdd16(b1[j], d)
	}
	m.b2[want] = satAdd16(m.b2[want], 1)
	m.b2[1-want] = satAdd16(m.b2[1-want], -1)
}

// Value returns the chosen action's output margin scaled into the tabular Q
// range (state is ignored; the MLP re-derives everything from the key).
func (m *MLP) Value(key uint64, _, action int) float64 {
	e := m.forward(key)
	diff := e.o0 - e.o1
	if action == 1 {
		diff = -diff
	}
	// Normalise by the maximum possible margin so Value stays within ±QClamp.
	max := float64(m.hidden*mlpWeightMax*mlpActMax + mlpWeightMax)
	return float64(diff) * QClamp / max
}

// Score maps the decision margin onto the unsigned 8-bit confidence scale.
func (m *MLP) Score(key uint64, _, action int) uint8 {
	e := m.forward(key)
	diff := e.o0 - e.o1
	if action == 1 {
		diff = -diff
	}
	v := int64(128) + int64(diff)>>3
	if v < 0 {
		v = 0
	} else if v > 255 {
		v = 255
	}
	return uint8(v)
}

// Freeze disables learning.
func (m *MLP) Freeze() { m.frozen = true }

// Frozen reports whether Freeze was called.
func (m *MLP) Frozen() bool { return m.frozen }

// Reset re-initialises the weights from the seed unless frozen.
func (m *MLP) Reset() {
	if m.frozen {
		return
	}
	m.init()
}

// StorageBits reports the parameter cost at 16 bits per weight/bias.
func (m *MLP) StorageBits() int {
	return (len(m.w1) + len(m.b1) + len(m.w2) + len(m.b2)) * 16
}

// ExplorationRate is always 0: the MLP never explores.
func (m *MLP) ExplorationRate() float64 { return 0 }

// Snapshot serialises all parameters as one int16 little-endian stream in
// w1, b1, w2, b2 order.
func (m *MLP) Snapshot() Snapshot {
	n := len(m.w1) + len(m.b1) + len(m.w2) + len(m.b2)
	w := make([]byte, 0, n*2)
	for _, layer := range [][]int16{m.w1, m.b1, m.w2, m.b2} {
		for _, v := range layer {
			w = appendInt16(w, v)
		}
	}
	return Snapshot{
		Version: SnapshotVersion,
		Kind:    KindMLP,
		Meta: SnapshotMeta{
			Inputs: m.inputs,
			Hidden: m.hidden,
			Seed:   m.seed,
		},
		Weights: w,
	}
}

// Restore loads an MLP snapshot.
func (m *MLP) Restore(sn Snapshot) error {
	if err := sn.validate(); err != nil {
		return err
	}
	if sn.Kind != KindMLP {
		return fmt.Errorf("rl: cannot restore %q snapshot into mlp", sn.Kind)
	}
	inputs, hidden := sn.Meta.Inputs, sn.Meta.Hidden
	if inputs <= 0 || hidden <= 0 {
		return fmt.Errorf("rl: mlp snapshot dimensions must be positive, got inputs=%d hidden=%d", inputs, hidden)
	}
	n := hidden*inputs + hidden + mlpActions*hidden + mlpActions
	if want := n * 2; len(sn.Weights) != want {
		return fmt.Errorf("rl: mlp snapshot has %d weight bytes, want %d", len(sn.Weights), want)
	}
	m.inputs, m.hidden, m.seed = inputs, hidden, sn.Meta.Seed
	m.alloc()
	k := 0
	for _, layer := range [][]int16{m.w1, m.b1, m.w2, m.b2} {
		for i := range layer {
			layer[i] = int16At(sn.Weights, k)
			k++
		}
	}
	m.ver++
	return nil
}

// RegisterMetrics registers decision/update counters and the update rate.
func (m *MLP) RegisterMetrics(s *telemetry.Scope) {
	s.Counter("decisions", &m.Decisions)
	s.Counter("updates", &m.Updates)
	s.RateOf("update_rate", &m.Updates, &m.Decisions)
}

// satAdd16 adds with saturation at ±mlpWeightMax.
func satAdd16(w, d int16) int16 {
	return min(max(w+d, -mlpWeightMax), mlpWeightMax)
}

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

// Byte-lane constants of the first layer: a uint64 word carries eight
// hidden units' weights on one input, each as the biased byte w+128.
const (
	laneUnits = 8                  // hidden units per word
	laneBias  = 128                // byte = weight + laneBias ∈ [1, 255]
	laneOnes  = 0x0101010101010101 // 1 in every byte
	laneLow7  = 0x7f7f7f7f7f7f7f7f
	laneEven  = 0x00ff00ff00ff00ff // bytes 0, 2, 4, 6 widened to 16 bits
	laneZero  = 0x8080808080808080 // every byte a zero weight
	// laneFlush inputs fill a 16-bit lane sum to at most 255·256 < 2¹⁶,
	// so lanes are widened into int32 every laneFlush inputs (4 mask words).
	laneFlush = 256
)

// MLP is a small two-layer network evaluated entirely in fixed-point
// integer arithmetic: ±1 input features hashed from the key, a hidden layer
// whose ReLU is a right-shift plus clamp, and a two-way output argmax.
// Weights saturate at ±127; training is a sign-sign delta rule. No float
// ever enters inference or learning, so decisions are identical on every
// platform — the property the determinism tests pin.
//
// The first layer is stored in byte lanes (see w1), so both its forward
// pass and its learning step work on eight hidden units per machine word
// with neither multiplies nor branches.
//
// Weight initialisation is seeded through SplitMix64, so two MLPs built
// with the same (inputs, hidden, seed) triple are identical.
type MLP struct {
	inputs int
	hidden int
	// w1 is the first layer, column-major in byte lanes: word k·inputs+i
	// holds hidden units 8k..8k+7's weights on input i, unit 8k+l in byte
	// l as w+laneBias. The units are padded to a multiple of 8 with units
	// whose weights are all zero; a padding unit never fires, so learning
	// leaves it at zero.
	w1 []uint64
	// The other parameters, all clamped to ±mlpWeightMax and padded like w1:
	b1 []int16 // [unit]
	w2 []int16 // [action][unit]
	b2 []int16 // [action]

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

// mlpEntry memoizes one key's forward pass. The feature signs and state tag
// are a function of the key alone and stay valid for as long as the entry
// holds that key; the hidden activations and outputs are valid only while
// the weights are still at version ver.
type mlpEntry struct {
	key   uint64
	used  bool
	state int
	neg   []uint64 // feature signs: bit i set when input i is -1 (i < inputs)
	ver   uint64
	a     []int32 // hidden activations, padded like b1
	o0    int32
	o1    int32
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
	m := &MLP{inputs: inputs, hidden: hidden}
	m.alloc()
	m.init(seed)
	return m
}

// groups is the number of byte-lane words per input.
func (m *MLP) groups() int { return (m.hidden + laneUnits - 1) / laneUnits }

func (m *MLP) alloc() {
	units := m.groups() * laneUnits // hidden units, padded
	m.w1 = make([]uint64, m.groups()*m.inputs)
	for i := range m.w1 {
		m.w1[i] = laneZero
	}
	// One slab for the small layers: every evaluation reads them all.
	p := make([]int16, (1+mlpActions)*units+mlpActions)
	m.b1 = p[:units:units]
	m.w2 = p[units : (1+mlpActions)*units : (1+mlpActions)*units]
	m.b2 = p[(1+mlpActions)*units:]
	words := (m.inputs + 63) / 64
	neg := make([]uint64, memoEntries*words)
	act := make([]int32, memoEntries*units)
	for i := range m.memo {
		m.memo[i] = mlpEntry{
			neg: neg[i*words:][:words:words],
			a:   act[i*units:][:units:units],
		}
	}
	m.mru = 0
}

// weight returns the first-layer weight of hidden unit j on input i.
func (m *MLP) weight(j, i int) int16 {
	u := m.w1[j/laneUnits*m.inputs+i] >> (8 * (j % laneUnits))
	return int16(u&0xff) - laneBias
}

// setWeight stores w (within ±mlpWeightMax) as hidden unit j's weight on
// input i.
func (m *MLP) setWeight(j, i int, w int16) {
	p, sh := &m.w1[j/laneUnits*m.inputs+i], 8*uint(j%laneUnits)
	*p = *p&^(0xff<<sh) | uint64(w+laneBias)<<sh
}

// init fills the freshly allocated first layer with small weights in
// [-8, 7] drawn from seed (the second layer starts at zero, so an untrained
// MLP is unbiased between actions and ties break toward action 0).
func (m *MLP) init(seed uint64) {
	s := seed ^ 0x3117a9e5b1c60000
	for j := 0; j < m.hidden; j++ {
		for i := 0; i < m.inputs; i++ {
			s += 0x9e3779b97f4a7c15
			m.setWeight(j, i, int16(SplitMix64(s)&15)-8)
		}
	}
}

// mlpFeatures sets neg to key's feature signs. Input i is ±1 from a salted
// hash of the key, each input looking at a different address granularity
// (same scheme as the perceptron's buckets, one bit instead of one
// counter); an even hash is -1. Input i looks at granularity 6+i%8 with
// salt i%8 of the eight, so the eight salted keys are computed once.
func mlpFeatures(neg []uint64, inputs int, key uint64) {
	var salted [8]uint64
	for r := range salted {
		salted[r] = (key >> (6 + r)) * featureSalts[r]
	}
	for w := range neg {
		var pos uint64
		n := uint(min(64, inputs-64*w))
		for b := uint(0); b < n; b++ {
			i := uint64(64*w) + uint64(b)
			pos |= SplitMix64(salted[i%8]+i) & 1 << (b & 63)
		}
		neg[w] = ^pos
	}
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
			mlpFeatures(e.neg, m.inputs, key)
			e.ver = m.ver - 1 // stale: evaluate below
		}
	}
	if e.ver != m.ver {
		m.eval(e)
	}
	return e
}

// signed returns the word u with every byte b replaced by 256-b when s is
// all ones (b = w+128 becomes -w+128; b ∈ [1, 255] never carries), and u
// itself when s is zero.
func signed(u, s uint64) uint64 {
	return u ^ (u^(^u+laneOnes))&s
}

// zeroBytes returns 0x80 in every byte of x that is zero and 0 elsewhere,
// exactly (no borrow from a lower byte reaches a higher one).
func zeroBytes(x uint64) uint64 {
	return ^((x&laneLow7 + laneLow7) | x | laneLow7)
}

// laneSums adds col's words (at most 64), each made signed by the next bit
// of neg, byte-wise into the 16-bit lanes of even (units 0, 2, 4, 6) and
// odd (units 1, 3, 5, 7). It and stepSums are kept out of line: inlined
// into their callers, the loop spills its accumulators to the stack.
//
//go:noinline
func laneSums(col []uint64, neg, even, odd uint64) (uint64, uint64) {
	for _, u := range col {
		v := signed(u, -(neg & 1))
		neg >>= 1
		even += v & laneEven
		odd += v >> 8 & laneEven
	}
	return even, odd
}

// stepSums is laneSums after a learning step on each word: bytes marked in
// up move by +1 and bytes marked in down by -1 along the input's sign, held
// at 255 (+127) and 1 (-127) by exact zero-byte masks.
//
//go:noinline
func stepSums(col []uint64, neg, up, down, even, odd uint64) (uint64, uint64) {
	for i, u := range col {
		s := -(neg & 1)
		neg >>= 1
		flip := (up ^ down) & s // a -1 input reverses the step
		inc := (up ^ flip) &^ (zeroBytes(^u) >> 7)
		dec := (down ^ flip) &^ (zeroBytes(u^laneOnes) >> 7)
		u = u + inc - dec
		col[i] = u
		v := signed(u, s)
		even += v & laneEven
		odd += v >> 8 & laneEven
	}
	return even, odd
}

// widen adds the 16-bit lane sums of even and odd to sum.
func widen(sum *[laneUnits]int32, even, odd uint64) {
	sum[0] += int32(uint16(even))
	sum[1] += int32(uint16(odd))
	sum[2] += int32(uint16(even >> 16))
	sum[3] += int32(uint16(odd >> 16))
	sum[4] += int32(uint16(even >> 32))
	sum[5] += int32(uint16(odd >> 32))
	sum[6] += int32(uint16(even >> 48))
	sum[7] += int32(uint16(odd >> 48))
}

// eval runs integer inference over e's features at the current weights.
// Per input, one word carries eight units' signed weights as biased bytes;
// summing the bytes into 16-bit lanes and removing the bias afterwards
// gives each unit's Σ x_i·w_i.
func (m *MLP) eval(e *mlpEntry) {
	o0, o1 := int32(m.b2[0]), int32(m.b2[1])
	for k := 0; k < m.groups(); k++ {
		sum := m.column(e, k, 0, 0)
		d0, d1 := m.activate(e, k, &sum)
		o0, o1 = o0+d0, o1+d1
	}
	e.o0, e.o1, e.ver = o0, o1, m.ver
}

// column returns group k's biased lane sums over e's features, first
// stepping the group's weights by up and down (see stepSums) when either
// is set. The 16-bit lanes are widened every laneFlush inputs.
func (m *MLP) column(e *mlpEntry, k int, up, down uint64) (sum [laneUnits]int32) {
	col := m.w1[k*m.inputs:][:m.inputs]
	var even, odd uint64
	for w, bits := range e.neg {
		blk := col[64*w : min(64*w+64, len(col))]
		if up|down == 0 {
			even, odd = laneSums(blk, bits, even, odd)
		} else {
			even, odd = stepSums(blk, bits, up, down, even, odd)
		}
		if w%(laneFlush/64) == laneFlush/64-1 || w == len(e.neg)-1 {
			widen(&sum, even, odd)
			even, odd = 0, 0
		}
	}
	return sum
}

// activate turns group k's biased lane sums into e's hidden activations and
// returns their weighted sums into the two outputs.
func (m *MLP) activate(e *mlpEntry, k int, sum *[laneUnits]int32) (o0, o1 int32) {
	lo := k * laneUnits
	a := (*[laneUnits]int32)(e.a[lo:])
	b1 := (*[laneUnits]int16)(m.b1[lo:])
	bias := int32(laneBias * m.inputs)
	for l, s := range sum {
		a[l] = min(max(s-bias+int32(b1[l]), 0)>>mlpActShift, mlpActMax)
	}
	w20 := (*[laneUnits]int16)(m.w2[lo:])
	w21 := (*[laneUnits]int16)(m.w2[len(m.b1)+lo:])
	for l, x := range a {
		o0 += int32(w20[l]) * x
		o1 += int32(w21[l]) * x
	}
	return o0, o1
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
// first layer nudges units' weights along the input signs. The same pass
// over the first layer re-evaluates the learned key at the new weights, so
// the call that follows is a memo hit.
func (m *MLP) Learn(t Transition) {
	if t.Reward == 0 {
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
	m.b2[want] = satAdd16(m.b2[want], 1)
	m.b2[1-want] = satAdd16(m.b2[1-want], -1)
	o0, o1 := int32(m.b2[0]), int32(m.b2[1])
	units := len(m.b1)
	for k := 0; k < m.groups(); k++ {
		// up and down hold 1 in the byte of each unit whose first-layer
		// weights step along (up) or against (down) the input signs: units
		// the target output weights positively are pushed to fire.
		lo := k * laneUnits
		act := (*[laneUnits]int32)(e.a[lo:])
		b1 := (*[laneUnits]int16)(m.b1[lo:])
		wantRow := (*[laneUnits]int16)(m.w2[want*units+lo:])
		otherRow := (*[laneUnits]int16)(m.w2[(1-want)*units+lo:])
		var up, down uint64
		for l, a := range act {
			var fired, u, d int16 // 0 or 1 each: flags, not data-dependent branches
			if a > 0 {
				fired = 1
			}
			wantRow[l] = satAdd16(wantRow[l], fired)
			otherRow[l] = satAdd16(otherRow[l], -fired)
			if wantRow[l] > otherRow[l] {
				u = 1
			}
			if wantRow[l] < otherRow[l] {
				d = 1
			}
			up |= uint64(u) << (8 * l)
			down |= uint64(d) << (8 * l)
			b1[l] = satAdd16(b1[l], u-d)
		}
		sum := m.column(e, k, up, down)
		d0, d1 := m.activate(e, k, &sum)
		o0, o1 = o0+d0, o1+d1
	}
	e.o0, e.o1, e.ver = o0, o1, m.ver
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

// StorageBits reports the parameter cost at 16 bits per weight/bias.
func (m *MLP) StorageBits() int {
	return (m.hidden*m.inputs + m.hidden + mlpActions*m.hidden + mlpActions) * 16
}

// ExplorationRate is always 0: the MLP never explores.
func (m *MLP) ExplorationRate() float64 { return 0 }

// Snapshot serialises all parameters as one int16 little-endian stream in
// w1 ([hidden][inputs]), b1, w2, b2 order.
func (m *MLP) Snapshot() Snapshot {
	w := make([]byte, 0, m.StorageBits()/8)
	for j := 0; j < m.hidden; j++ {
		for i := 0; i < m.inputs; i++ {
			w = appendInt16(w, m.weight(j, i))
		}
	}
	for _, layer := range m.layers() {
		for _, v := range layer {
			w = appendInt16(w, v)
		}
	}
	return Snapshot{
		Kind:    KindMLP,
		Meta:    SnapshotMeta{Inputs: m.inputs, Hidden: m.hidden},
		Weights: w,
	}
}

// Restore loads an MLP snapshot. First-layer weights must lie within
// ±mlpWeightMax, the range learning keeps them in.
func (m *MLP) Restore(sn Snapshot) error {
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
	for k := 0; k < hidden*inputs; k++ {
		if w := int16At(sn.Weights, k); w < -mlpWeightMax || w > mlpWeightMax {
			return fmt.Errorf("rl: mlp snapshot w1[%d][%d] = %d is outside ±%d",
				k/inputs, k%inputs, w, mlpWeightMax)
		}
	}
	m.inputs, m.hidden = inputs, hidden
	m.alloc()
	k := 0
	for j := 0; j < hidden; j++ {
		for i := 0; i < inputs; i++ {
			m.setWeight(j, i, int16At(sn.Weights, k))
			k++
		}
	}
	for _, layer := range m.layers() {
		for i := range layer {
			layer[i] = int16At(sn.Weights, k)
			k++
		}
	}
	m.ver++
	return nil
}

// layers returns the real (unpadded) units' b1, w2 and b2, in snapshot
// order.
func (m *MLP) layers() [][]int16 {
	units := len(m.b1)
	return [][]int16{m.b1[:m.hidden], m.w2[:m.hidden], m.w2[units:][:m.hidden], m.b2}
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

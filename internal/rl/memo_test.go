package rl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// The reference models below are the MLP and perceptron arithmetic without
// the forward-pass memo: every call re-hashes the key and re-runs the
// network over the current weights. FuzzPolicyMemo drives a memoized policy
// and its reference through the same call sequence and requires identical
// behaviour, so a missed version bump or a stale entry shows up as a
// divergence.

type refPolicy interface {
	act(key uint64) Decision
	learn(t Transition)
	value(key uint64, action int) float64
	score(key uint64, action int) uint8
	restore(sn Snapshot) error
	weights() []byte
	counters() (decisions, updates uint64)
}

type refMLP struct {
	inputs, hidden int
	seed           uint64
	w1, b1, w2, b2 []int16
	decisions      uint64
	updates        uint64
	x              []int8
	a              []int32
}

func newRefMLP(inputs, hidden int, seed uint64) *refMLP {
	m := &refMLP{inputs: inputs, hidden: hidden, seed: seed}
	m.alloc()
	m.init()
	return m
}

func (m *refMLP) alloc() {
	m.w1 = make([]int16, m.hidden*m.inputs)
	m.b1 = make([]int16, m.hidden)
	m.w2 = make([]int16, mlpActions*m.hidden)
	m.b2 = make([]int16, mlpActions)
	m.x = make([]int8, m.inputs)
	m.a = make([]int32, m.hidden)
}

func (m *refMLP) init() {
	s := m.seed ^ 0x3117a9e5b1c60000
	for i := range m.w1 {
		s += 0x9e3779b97f4a7c15
		m.w1[i] = int16(SplitMix64(s)&15) - 8
	}
	clear(m.b1)
	clear(m.w2)
	clear(m.b2)
}

func refSatAdd16(w, d int16) int16 {
	w += d
	if w > mlpWeightMax {
		return mlpWeightMax
	}
	if w < -mlpWeightMax {
		return -mlpWeightMax
	}
	return w
}

func (m *refMLP) forward(key uint64) (o0, o1 int32) {
	for i := 0; i < m.inputs; i++ {
		shift := uint(6 + i%8)
		h := SplitMix64((key>>shift)*featureSalts[i%len(featureSalts)] + uint64(i))
		m.x[i] = 1
		if h&1 == 0 {
			m.x[i] = -1
		}
	}
	for j := 0; j < m.hidden; j++ {
		acc := int32(m.b1[j])
		row := j * m.inputs
		for i := 0; i < m.inputs; i++ {
			w := int32(m.w1[row+i])
			if m.x[i] >= 0 {
				acc += w
			} else {
				acc -= w
			}
		}
		if acc < 0 {
			acc = 0
		}
		acc >>= mlpActShift
		if acc > mlpActMax {
			acc = mlpActMax
		}
		m.a[j] = acc
	}
	o0, o1 = int32(m.b2[0]), int32(m.b2[1])
	for j := 0; j < m.hidden; j++ {
		o0 += int32(m.w2[j]) * m.a[j]
		o1 += int32(m.w2[m.hidden+j]) * m.a[j]
	}
	return o0, o1
}

func (m *refMLP) act(key uint64) Decision {
	m.decisions++
	o0, o1 := m.forward(key)
	a := 0
	if o1 > o0 {
		a = 1
	}
	return Decision{State: int(SplitMix64(key) & mlpStateMask), Action: a}
}

func (m *refMLP) learn(t Transition) {
	if t.Reward == 0 {
		return
	}
	want := t.Action
	if t.Reward < 0 {
		want = 1 - want
	}
	o0, o1 := m.forward(t.Key)
	pred := 0
	if o1 > o0 {
		pred = 1
	}
	if pred == want {
		return
	}
	m.updates++
	other := 1 - want
	for j := 0; j < m.hidden; j++ {
		if m.a[j] > 0 {
			m.w2[want*m.hidden+j] = refSatAdd16(m.w2[want*m.hidden+j], 1)
			m.w2[other*m.hidden+j] = refSatAdd16(m.w2[other*m.hidden+j], -1)
		}
		var d int16
		switch {
		case m.w2[want*m.hidden+j] > m.w2[other*m.hidden+j]:
			d = 1
		case m.w2[want*m.hidden+j] < m.w2[other*m.hidden+j]:
			d = -1
		default:
			continue
		}
		row := j * m.inputs
		for i := 0; i < m.inputs; i++ {
			if m.x[i] >= 0 {
				m.w1[row+i] = refSatAdd16(m.w1[row+i], d)
			} else {
				m.w1[row+i] = refSatAdd16(m.w1[row+i], -d)
			}
		}
		m.b1[j] = refSatAdd16(m.b1[j], d)
	}
	m.b2[want] = refSatAdd16(m.b2[want], 1)
	m.b2[other] = refSatAdd16(m.b2[other], -1)
}

func (m *refMLP) value(key uint64, action int) float64 {
	o0, o1 := m.forward(key)
	diff := o0 - o1
	if action == 1 {
		diff = -diff
	}
	return float64(diff) * QClamp / float64(m.hidden*mlpWeightMax*mlpActMax+mlpWeightMax)
}

func (m *refMLP) score(key uint64, action int) uint8 {
	o0, o1 := m.forward(key)
	diff := o0 - o1
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

// restore loads a snapshot, rejecting (and leaving the model untouched)
// one whose first layer holds a weight learning could never reach.
func (m *refMLP) restore(sn Snapshot) error {
	for k := 0; k < sn.Meta.Hidden*sn.Meta.Inputs; k++ {
		if w := int16At(sn.Weights, k); w > mlpWeightMax || w < -mlpWeightMax {
			return fmt.Errorf("reference mlp: w1 weight %d = %d out of range", k, w)
		}
	}
	m.inputs, m.hidden = sn.Meta.Inputs, sn.Meta.Hidden
	m.alloc()
	k := 0
	for _, layer := range [][]int16{m.w1, m.b1, m.w2, m.b2} {
		for i := range layer {
			layer[i] = int16At(sn.Weights, k)
			k++
		}
	}
	return nil
}

func (m *refMLP) weights() []byte {
	var w []byte
	for _, layer := range [][]int16{m.w1, m.b1, m.w2, m.b2} {
		for _, v := range layer {
			w = appendInt16(w, v)
		}
	}
	return w
}

func (m *refMLP) counters() (uint64, uint64) { return m.decisions, m.updates }

type refPerceptron struct {
	features, buckets int
	theta             int32
	w                 []int16
	decisions         uint64
	updates           uint64
}

func (pc *refPerceptron) bucketOf(f int, key uint64) int {
	shift := uint(6 + 2*f)
	h := SplitMix64((key >> shift) * featureSalts[f%len(featureSalts)])
	return f*pc.buckets + int(h&uint64(pc.buckets-1))
}

func (pc *refPerceptron) sum(key uint64) int32 {
	var y int32
	for f := 0; f < pc.features; f++ {
		y += int32(pc.w[pc.bucketOf(f, key)])
	}
	return y
}

func (pc *refPerceptron) act(key uint64) Decision {
	pc.decisions++
	a := 0
	if pc.sum(key) >= 0 {
		a = 1
	}
	return Decision{State: pc.bucketOf(0, key) % pc.buckets, Action: a}
}

func (pc *refPerceptron) learn(t Transition) {
	if t.Reward == 0 {
		return
	}
	want := t.Action
	if t.Reward < 0 {
		want = 1 - want
	}
	y := pc.sum(t.Key)
	pred := 0
	if y >= 0 {
		pred = 1
	}
	if pred == want && abs32(y) > pc.theta {
		return
	}
	pc.updates++
	var d int16 = 1
	if want == 0 {
		d = -1
	}
	for f := 0; f < pc.features; f++ {
		i := pc.bucketOf(f, t.Key)
		w := pc.w[i] + d
		if w > perceptronWeightMax {
			w = perceptronWeightMax
		} else if w < -perceptronWeightMax {
			w = -perceptronWeightMax
		}
		pc.w[i] = w
	}
}

func (pc *refPerceptron) value(key uint64, _ int) float64 {
	return float64(pc.sum(key)) * QClamp / float64(int32(pc.features)*perceptronWeightMax)
}

func (pc *refPerceptron) score(key uint64, _ int) uint8 {
	v := int32(128) + pc.sum(key)
	if v < 0 {
		v = 0
	} else if v > 255 {
		v = 255
	}
	return uint8(v)
}

func (pc *refPerceptron) restore(sn Snapshot) error {
	pc.features, pc.buckets = sn.Meta.Features, sn.Meta.Buckets
	pc.theta = int32(sn.Meta.Theta)
	pc.w = make([]int16, pc.features*pc.buckets)
	for i := range pc.w {
		pc.w[i] = int16At(sn.Weights, i)
	}
	return nil
}

func (pc *refPerceptron) weights() []byte {
	var w []byte
	for _, v := range pc.w {
		w = appendInt16(w, v)
	}
	return w
}

func (pc *refPerceptron) counters() (uint64, uint64) { return pc.decisions, pc.updates }

// Shapes the MLP memo tests cover: hidden counts below, at and across the
// 8-unit word of the first layer, and input counts across one and several
// 64-bit sign masks and past the 256-input flush of the 16-bit lane sums.
var (
	memoHidden = [4]int{defaultMLPHidden, 3, 9, 17}
	memoInputs = [4]int{defaultMLPInputs, 5, 65, 300}
)

// memoPair builds a memoized policy and its reference from a shape byte:
// bit 0 picks the kind. For the MLP, bits 1-2 pick the hidden count and
// bits 3-4 the input count from memoHidden and memoInputs; for the
// perceptron, bit 1 picks a small shape, one whose keys share buckets, so
// learning on one key moves another key's sum.
func memoPair(shape byte) (Policy, refPolicy) {
	small := shape&2 != 0
	if shape&1 == 0 {
		hidden, inputs := memoHidden[shape>>1&3], memoInputs[shape>>3&3]
		return NewMLP(inputs, hidden, 7), newRefMLP(inputs, hidden, 7)
	}
	features, buckets, theta := defaultPerceptronFeatures, defaultPerceptronBuckets, int32(defaultPerceptronTheta)
	if small {
		features, buckets, theta = 2, 4, 3
	}
	return NewPerceptron(features, buckets, theta),
		&refPerceptron{features: features, buckets: buckets, theta: theta, w: make([]int16, features*buckets)}
}

// runMemoSequence decodes data into a call sequence and checks the memoized
// policy against its reference after every call. data[0] is the shape,
// data[1] the key count (2 or 3 alternating keys plus one outsider that
// forces evictions), data[2:10] the key seed and each later byte one call:
// the low nibble the operation, the high bits its key and action. Byte 0xfc
// restores a copy of the current weights scaled by 32 and clamped to ±127,
// so the learning that follows runs into the saturation bounds at once.
func runMemoSequence(t *testing.T, data []byte) {
	if len(data) < 10 {
		return
	}
	p, ref := memoPair(data[0])
	nk := 2 + int(data[1]&1)
	seed := binary.LittleEndian.Uint64(data[2:10])
	var keys [4]uint64
	for i := range keys {
		keys[i] = SplitMix64(seed+uint64(i)) &^ 63
	}
	var saved *Snapshot
	for n, b := range data[10:] {
		key := keys[int(b>>4)%nk]
		action := int(b>>7) & 1
		switch op := b & 15; op {
		case 0, 1, 2, 10, 14:
			if got, want := p.Act(key), ref.act(key); got != want {
				t.Fatalf("call %d: Act(%#x) = %+v, reference %+v", n, key, got, want)
			}
		case 3, 15:
			if op == 15 {
				key = keys[3]
			}
			if got, want := p.Value(key, 0, action), ref.value(key, action); got != want {
				t.Fatalf("call %d: Value(%#x, %d) = %v, reference %v", n, key, action, got, want)
			}
		case 4:
			if got, want := p.Score(key, 0, action), ref.score(key, action); got != want {
				t.Fatalf("call %d: Score(%#x, %d) = %d, reference %d", n, key, action, got, want)
			}
		case 5, 6, 7, 8, 9:
			tr := Transition{Key: key, Action: int(b>>6) & 1}
			switch {
			case op == 6 || op == 7:
				tr.Reward = 10
			case op >= 8:
				tr.Reward = -10
			}
			p.Learn(tr)
			ref.learn(tr)
		case 11:
			sn := p.Snapshot()
			saved = &sn
		case 12:
			sn := p.Snapshot()
			if b>>4 == 15 {
				sn = saturated(sn)
			} else if saved != nil {
				sn = *saved
			}
			if err := p.Restore(sn); err != nil {
				t.Fatalf("call %d: Restore: %v", n, err)
			}
			if err := ref.restore(sn); err != nil {
				t.Fatalf("call %d: reference restore: %v", n, err)
			}
		case 13:
			if got, want := p.Snapshot().Weights, ref.weights(); !bytes.Equal(got, want) {
				t.Fatalf("call %d: snapshot weights diverged from reference", n)
			}
		}
		dec, upd := ref.counters()
		var gotDec, gotUpd uint64
		switch q := p.(type) {
		case *MLP:
			gotDec, gotUpd = q.Decisions, q.Updates
		case *Perceptron:
			gotDec, gotUpd = q.Decisions, q.Updates
		}
		if gotDec != dec || gotUpd != upd {
			t.Fatalf("call %d: Decisions/Updates = %d/%d, reference %d/%d", n, gotDec, gotUpd, dec, upd)
		}
	}
	if got, want := p.Snapshot().Weights, ref.weights(); !bytes.Equal(got, want) {
		t.Fatal("final snapshot weights diverged from reference")
	}
}

// saturated returns sn with every weight scaled by 32 and clamped to ±127.
func saturated(sn Snapshot) Snapshot {
	w := make([]byte, 0, len(sn.Weights))
	for k := 0; k < len(sn.Weights)/2; k++ {
		w = appendInt16(w, int16(min(max(32*int32(int16At(sn.Weights, k)), -127), 127)))
	}
	sn.Weights = w
	return sn
}

// memoCorpus is FuzzPolicyMemo's seed corpus: every MLP shape and both
// perceptron shapes, each with a short hand-written sequence and long
// pseudo-random ones that interleave every operation and saturate the
// weights (0xfc at call 990).
func memoCorpus() [][]byte {
	var corpus [][]byte
	for shape := byte(0); shape < 32; shape++ {
		if shape&1 == 1 && shape > 3 {
			continue // the perceptron has two shapes
		}
		corpus = append(corpus, []byte{shape, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0x10, 0x23, 0x07, 0x16, 0x09, 0x04, 0x1d, 0xff, 0x0c, 0x84, 0xfe, 0x07, 0x03})
		for keys := byte(0); keys < 2; keys++ {
			rng := NewRand(uint64(shape)<<8 | uint64(keys))
			seq := []byte{shape, keys}
			for len(seq) < 4000 {
				b := byte(rng.Uint64())
				if b == 0xfc { // saturate only where placed below
					b = 0xee
				}
				seq = append(seq, b)
			}
			seq[1000] = 0xfc
			corpus = append(corpus, seq)
		}
	}
	return corpus
}

// FuzzPolicyMemo differentially tests the memoized MLP and perceptron
// against their un-memoized reference arithmetic.
func FuzzPolicyMemo(f *testing.F) {
	for _, seq := range memoCorpus() {
		f.Add(seq)
	}
	f.Fuzz(runMemoSequence)
}

// TestMLPSnapshotMatchesReference trains an MLP of every tested shape, from
// its seeded weights and from saturated ones (where most first-layer steps
// run into ±127 and must be held), and requires its snapshot bytes to equal
// the reference's int16 stream of w1 ([hidden][inputs]), b1, w2 and b2: the
// packed first layer leaves the snapshot weight stream unchanged.
func TestMLPSnapshotMatchesReference(t *testing.T) {
	for _, hidden := range memoHidden {
		for _, inputs := range memoInputs {
			for _, saturate := range []bool{false, true} {
				m, ref := NewMLP(inputs, hidden, 11), newRefMLP(inputs, hidden, 11)
				if saturate {
					sn := saturated(m.Snapshot())
					if err := m.Restore(sn); err != nil {
						t.Fatal(err)
					}
					if err := ref.restore(sn); err != nil {
						t.Fatal(err)
					}
					if w1 := ref.w1; !slices.Contains(w1, -mlpWeightMax) || !slices.Contains(w1, mlpWeightMax) {
						t.Fatalf("%dx%d: saturated weights miss a bound", inputs, hidden)
					}
				}
				rng := NewRand(uint64(hidden*1000 + inputs))
				var keys [5]uint64
				for i := range keys {
					keys[i] = rng.Uint64() &^ 63
				}
				for n := 0; n < 3000; n++ {
					r := rng.Uint64()
					tr := Transition{Key: keys[r%5], Action: int(r>>8) & 1, Reward: 1}
					if r>>9&1 == 1 {
						tr.Reward = -1
					}
					m.Learn(tr)
					ref.learn(tr)
				}
				if m.Updates == 0 || m.Updates != ref.updates {
					t.Fatalf("%dx%d: %d updates, reference %d", inputs, hidden, m.Updates, ref.updates)
				}
				if got, want := m.Snapshot().Weights, ref.weights(); !bytes.Equal(got, want) {
					t.Fatalf("%dx%d (saturated %v): trained snapshot differs from the reference weight stream",
						inputs, hidden, saturate)
				}
			}
		}
	}
}

// TestMLPRestoreRejectsOutOfRangeW1 pins the Restore contract: a first-layer
// weight outside ±127 is rejected with an error naming it, the policy keeps
// its weights, and the reference rejects the same snapshot. The other
// layers keep their int16 range.
func TestMLPRestoreRejectsOutOfRangeW1(t *testing.T) {
	const inputs, hidden = 16, 9
	for _, bad := range []int16{128, -128, 255, -32768, 32767} {
		m := NewMLP(inputs, hidden, 3)
		sn := m.Snapshot()
		before := bytes.Clone(sn.Weights)
		sn.Weights = bytes.Clone(sn.Weights)
		binary.LittleEndian.PutUint16(sn.Weights[2*(2*inputs+5):], uint16(bad)) // w1[2][5]
		err := m.Restore(sn)
		if err == nil || !strings.Contains(err.Error(), "w1[2][5]") {
			t.Fatalf("w1 = %d: Restore error %v, want one naming w1[2][5]", bad, err)
		}
		if !bytes.Equal(m.Snapshot().Weights, before) {
			t.Fatalf("w1 = %d: a rejected Restore changed the weights", bad)
		}
		if err := newRefMLP(inputs, hidden, 3).restore(sn); err == nil {
			t.Fatalf("w1 = %d: reference accepted the snapshot", bad)
		}
	}
	m := NewMLP(inputs, hidden, 3)
	sn := saturated(m.Snapshot())
	binary.LittleEndian.PutUint16(sn.Weights[2*inputs*hidden:], uint16(300)) // b1[0]
	if err := m.Restore(sn); err != nil {
		t.Fatalf("±127 first layer with b1[0] = 300 rejected: %v", err)
	}
	if got := m.Snapshot().Weights; !bytes.Equal(got, sn.Weights) {
		t.Fatal("restored snapshot does not round-trip")
	}
}

// TestMLPAlignedWeightsFillLanes gives every unit the weight +127 or -127
// along one key's feature signs, so each input adds 255 to a 16-bit lane:
// past 256 inputs a lane overflows unless it was widened in time. The
// memoized MLP must agree with the reference on that key, where every
// unit's pre-activation is ±127·inputs, and on a second key.
func TestMLPAlignedWeightsFillLanes(t *testing.T) {
	for _, inputs := range []int{255, 256, 257, 300, 600} {
		const hidden = 9
		ref := newRefMLP(inputs, hidden, 1)
		key, other := uint64(0x5eed)<<6, uint64(0xfeed)<<6
		ref.forward(key)
		m := NewMLP(inputs, hidden, 1)
		sn := m.Snapshot()
		for j := 0; j < hidden; j++ {
			sign := int16(1)
			if j%3 == 2 {
				sign = -1 // a unit driven all the way negative stays silent
			}
			for i := 0; i < inputs; i++ {
				binary.LittleEndian.PutUint16(sn.Weights[2*(j*inputs+i):], uint16(sign*mlpWeightMax*int16(ref.x[i])))
			}
			binary.LittleEndian.PutUint16(sn.Weights[2*(hidden*inputs+hidden+j):], 1) // w2[0][j]
		}
		if err := m.Restore(sn); err != nil {
			t.Fatal(err)
		}
		if err := ref.restore(sn); err != nil {
			t.Fatal(err)
		}
		for _, k := range []uint64{key, other} {
			for action := 0; action < mlpActions; action++ {
				if got, want := m.Value(k, 0, action), ref.value(k, action); got != want {
					t.Fatalf("%d inputs, key %#x: Value(%d) = %v, reference %v", inputs, k, action, got, want)
				}
			}
		}
		if ref.value(key, 0) == 0 {
			t.Fatalf("%d inputs: the aligned key's margin is zero, so the test checks nothing", inputs)
		}
	}
}

// TestMLPLearnLeavesKeyCurrent checks the fused learning pass: after a
// Learn that writes weights, the learned key's memo entry already holds
// its outputs at the new weight version, so the Score that follows is a
// hit, and those outputs match a fresh evaluation.
func TestMLPLearnLeavesKeyCurrent(t *testing.T) {
	for _, hidden := range memoHidden {
		m, ref := NewMLP(0, hidden, 5), newRefMLP(defaultMLPInputs, hidden, 5)
		key := uint64(0xabc) << 6
		for n := 0; n < 50; n++ {
			tr := Transition{Key: key, Action: n % 2, Reward: 1}
			before := m.Updates
			m.Learn(tr)
			ref.learn(tr)
			if m.Updates == before {
				continue
			}
			e := &m.memo[m.mru]
			if e.key != key || e.ver != m.ver {
				t.Fatalf("hidden %d: after an update the learned key is not current in the memo", hidden)
			}
			if o0, o1 := ref.forward(key); e.o0 != o0 || e.o1 != o1 {
				t.Fatalf("hidden %d: fused outputs %d/%d, reference %d/%d", hidden, e.o0, e.o1, o0, o1)
			}
		}
		if m.Updates == 0 {
			t.Fatalf("hidden %d: no update happened", hidden)
		}
	}
}

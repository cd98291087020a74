package rl

import (
	"fmt"

	"cosmos/internal/telemetry"
)

// Perceptron defaults; chosen so the default shape's StorageBits (4 tables ×
// 1024 buckets × 16-bit weights = 64 Kbit) sits below the default tabular
// table (16384 × 2 × 8 = 256 Kbit).
const (
	defaultPerceptronFeatures = 4
	defaultPerceptronBuckets  = 1024
	defaultPerceptronTheta    = 24
	perceptronWeightMax       = 127
)

// Perceptron is a hashed multi-feature perceptron in the style of
// perceptron branch predictors: each of F feature tables is indexed by a
// differently-salted hash of the key, the indexed int16 weights are summed,
// and the sign of the sum picks the action (sum ≥ 0 ⇒ action 1). Training
// is the classic margin rule — update only on a wrong sign or a sum inside
// ±θ — with weights saturating at ±127, so inference and learning are both
// integer-only and platform-independent.
//
// There is no exploration and no randomness: a perceptron with the same
// weights always makes the same decisions.
type Perceptron struct {
	features int
	buckets  int
	theta    int32
	w        []int16 // row-major [feature][bucket]

	Decisions uint64
	Updates   uint64

	// ver is the weight version, bumped on every write to w; the memo
	// follows the MLP's (see memoEntries).
	ver  uint64
	memo [memoEntries]perceptronEntry
	mru  int
}

// perceptronEntry memoizes one key's weight indices, a function of the key
// alone, and its activation, valid only while the weights are at version
// ver.
type perceptronEntry struct {
	key  uint64
	used bool
	idx  []int // per-feature index into w
	ver  uint64
	sum  int32
}

var _ Policy = (*Perceptron)(nil)

// NewPerceptron constructs a zero-weight perceptron. Zero arguments take the
// defaults; buckets must be a power of two (the hash is masked into it).
func NewPerceptron(features, buckets int, theta int32) *Perceptron {
	if features == 0 {
		features = defaultPerceptronFeatures
	}
	if buckets == 0 {
		buckets = defaultPerceptronBuckets
	}
	if theta == 0 {
		theta = defaultPerceptronTheta
	}
	if features < 0 {
		panic(fmt.Sprintf("rl: perceptron features must be positive, got %d", features))
	}
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		panic(fmt.Sprintf("rl: perceptron buckets must be a positive power of two, got %d", buckets))
	}
	pc := &Perceptron{features: features, buckets: buckets, theta: theta}
	pc.alloc()
	return pc
}

// alloc sizes the weight tables and the memo for the current shape.
func (pc *Perceptron) alloc() {
	pc.w = make([]int16, pc.features*pc.buckets)
	idx := make([]int, memoEntries*pc.features)
	for i := range pc.memo {
		pc.memo[i] = perceptronEntry{idx: idx[i*pc.features:][:pc.features:pc.features]}
	}
	pc.mru = 0
}

// featureSalts are fixed odd multipliers decorrelating the per-feature
// hashes of the same key (splitmix64 increments of different streams).
var featureSalts = [...]uint64{
	0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb,
	0xd6e8feb86659fd93, 0xa0761d6478bd642f, 0xe7037ed1a0b428db,
	0x8ebc6af09c88c6e3, 0x589965cc75374cc3,
}

// bucketOf returns the weight index of feature f for key. The features look
// at progressively coarser address granularities (cache line, 4-line, page,
// 16-page …) so the summed weights can express both fine reuse and
// region-level locality.
func (pc *Perceptron) bucketOf(f int, key uint64) int {
	shift := uint(6 + 2*f)
	h := SplitMix64((key >> shift) * featureSalts[f%len(featureSalts)])
	return f*pc.buckets + int(h&uint64(pc.buckets-1))
}

// lookup returns key's memo entry with its activation at the current
// weight version, hashing the bucket indices only on a miss (which evicts
// the less recently used entry). int32 cannot overflow: |w| ≤ 127 and
// features is small.
func (pc *Perceptron) lookup(key uint64) *perceptronEntry {
	e := &pc.memo[pc.mru]
	if !e.used || e.key != key {
		pc.mru ^= 1
		e = &pc.memo[pc.mru]
		if !e.used || e.key != key {
			e.key, e.used = key, true
			for f := range e.idx {
				e.idx[f] = pc.bucketOf(f, key)
			}
			e.ver = pc.ver - 1 // stale: evaluate below
		}
	}
	if e.ver != pc.ver {
		var y int32
		for _, i := range e.idx {
			y += int32(pc.w[i])
		}
		e.sum, e.ver = y, pc.ver
	}
	return e
}

// Kind implements Policy.
func (pc *Perceptron) Kind() string { return KindPerceptron }

// Act returns action 1 iff the summed weights are non-negative. The state
// reported is the first feature's bucket index — a stable per-key tag the
// CET can record, though the perceptron itself re-derives everything from
// the key on Learn.
func (pc *Perceptron) Act(key uint64) Decision {
	pc.Decisions++
	e := pc.lookup(key)
	a := 0
	if e.sum >= 0 {
		a = 1
	}
	// Feature 0's index lies in [0, buckets), so it is its own bucket.
	return Decision{State: e.idx[0], Action: a}
}

// Learn applies the margin rule. The target sign comes from the transition:
// a positive reward confirms the taken action, a negative reward votes for
// the opposite one (the predictors' reward tables are strictly
// positive-for-correct / negative-for-wrong, so the sign is the label).
func (pc *Perceptron) Learn(t Transition) {
	if t.Reward == 0 {
		return
	}
	// Desired action: the taken one if rewarded, its complement if punished.
	want := t.Action
	if t.Reward < 0 {
		want = 1 - want
	}
	e := pc.lookup(t.Key)
	y := e.sum
	pred := 0
	if y >= 0 {
		pred = 1
	}
	if pred == want && abs32(y) > pc.theta {
		return
	}
	pc.Updates++
	pc.ver++
	d := int16(want)*2 - 1
	for _, i := range e.idx {
		pc.w[i] = min(max(pc.w[i]+d, -perceptronWeightMax), perceptronWeightMax)
	}
}

// Value returns the activation for key scaled into the tabular Q range, so
// bootstrap terms fed back through transitions stay commensurate. state and
// action are ignored — the perceptron's estimate is a function of the key.
func (pc *Perceptron) Value(key uint64, _, _ int) float64 {
	max := int32(pc.features) * perceptronWeightMax
	if max == 0 {
		return 0
	}
	return float64(pc.lookup(key).sum) * QClamp / float64(max)
}

// Score maps the activation's magnitude onto the unsigned 8-bit confidence
// scale: 128 = neutral, saturating toward 0/255 with the margin.
func (pc *Perceptron) Score(key uint64, _, _ int) uint8 {
	v := int32(128) + pc.lookup(key).sum
	if v < 0 {
		v = 0
	} else if v > 255 {
		v = 255
	}
	return uint8(v)
}

// StorageBits reports the weight tables' hardware cost (16 bits/weight).
func (pc *Perceptron) StorageBits() int { return len(pc.w) * 16 }

// ExplorationRate is always 0: the perceptron never explores.
func (pc *Perceptron) ExplorationRate() float64 { return 0 }

// Snapshot serialises the weight tables (int16 little-endian).
func (pc *Perceptron) Snapshot() Snapshot {
	w := make([]byte, 0, len(pc.w)*2)
	for _, v := range pc.w {
		w = appendInt16(w, v)
	}
	return Snapshot{
		Kind: KindPerceptron,
		Meta: SnapshotMeta{
			Features: pc.features,
			Buckets:  pc.buckets,
			Theta:    int(pc.theta),
		},
		Weights: w,
	}
}

// Restore loads a perceptron snapshot.
func (pc *Perceptron) Restore(sn Snapshot) error {
	if sn.Kind != KindPerceptron {
		return fmt.Errorf("rl: cannot restore %q snapshot into perceptron", sn.Kind)
	}
	features, buckets := sn.Meta.Features, sn.Meta.Buckets
	if features <= 0 {
		return fmt.Errorf("rl: perceptron snapshot features %d must be positive", features)
	}
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		return fmt.Errorf("rl: perceptron snapshot buckets %d must be a positive power of two", buckets)
	}
	if want := features * buckets * 2; len(sn.Weights) != want {
		return fmt.Errorf("rl: perceptron snapshot has %d weight bytes, want %d", len(sn.Weights), want)
	}
	pc.features = features
	pc.buckets = buckets
	pc.theta = int32(sn.Meta.Theta)
	if pc.theta == 0 {
		pc.theta = defaultPerceptronTheta
	}
	pc.alloc()
	for i := range pc.w {
		pc.w[i] = int16At(sn.Weights, i)
	}
	pc.ver++
	return nil
}

// RegisterMetrics registers decision/update counters and the update rate.
func (pc *Perceptron) RegisterMetrics(s *telemetry.Scope) {
	s.Counter("decisions", &pc.Decisions)
	s.Counter("updates", &pc.Updates)
	s.RateOf("update_rate", &pc.Updates, &pc.Decisions)
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

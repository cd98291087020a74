package cache

// LCR is the paper's locality-centric replacement policy (Algorithm 2).
// Every line carries a 1-bit locality flag (1 = good locality, 0 = bad) and
// an 8-bit locality score, both supplied by the RL-based CTR locality
// predictor via SetHint. Eviction targets, in order:
//
//  1. among bad-locality lines, the one with the HIGHEST bad score
//     (most confidently bad);
//  2. if every line is good, the one with the LOWEST good score
//     (least confidently good).
//
// Falling back to LRU order breaks ties so behaviour stays deterministic.
//
// Each line's flag, score and last-touch stamp live in one packed uint64
// key, ordered so that the victim is simply the smallest key of the set:
//
//	bit  63     good flag (1 = good locality)
//	bits 55-62  rank: 255-score for a bad line, score for a good one
//	bits  0-54  stamp (the LRU clock at the line's last touch)
//
// Any bad line sorts below every good line; among bad lines the highest
// score has the lowest rank, among good lines the lowest score does; equal
// ranks fall to the older stamp. Every touch draws a fresh clock value, so
// the valid lines of a full set carry distinct stamps, their keys are
// distinct, and the minimum names exactly one way — the same way the
// two-pass form of Algorithm 2 picks. The 55-bit stamp wraps only after
// 3.6×10^16 touches, far beyond any run.
type LCR struct {
	ways  int
	key   []uint64 // sets*ways packed keys, row-major
	clock uint64
}

const (
	lcrGood      = 1 << 63
	lcrRankShift = 55
	lcrStampMask = 1<<lcrRankShift - 1
)

// lcrKey encodes a flag and score into the key's flag and rank fields.
func lcrKey(good bool, score uint8) uint64 {
	if good {
		return lcrGood | uint64(score)<<lcrRankShift
	}
	return uint64(255-score) << lcrRankShift
}

// NewLCR returns the LCR policy. Lines inserted before any hint arrives are
// treated as bad locality with a neutral score, matching the hardware where
// the prediction bit accompanies the fill.
func NewLCR() *LCR { return &LCR{} }

// Name implements Policy.
func (p *LCR) Name() string { return "LCR" }

// Reset implements Policy.
func (p *LCR) Reset(sets, ways int) {
	p.ways = ways
	p.key = make([]uint64, sets*ways)
	for i := range p.key {
		p.key[i] = lcrKey(false, 0) // never touched: bad, score 0, stamp 0
	}
	p.clock = 0
}

// touch replaces the line's stamp, keeping its flag and rank.
func (p *LCR) touch(set, way int) {
	p.clock++
	i := set*p.ways + way
	p.key[i] = p.key[i]&^lcrStampMask | p.clock
}

// OnHit implements Policy.
func (p *LCR) OnHit(set, way int, _ Event) { p.touch(set, way) }

// OnInsert implements Policy: default to bad locality / neutral score until
// the predictor hint lands.
func (p *LCR) OnInsert(set, way int, _ Event) {
	p.clock++
	p.key[set*p.ways+way] = lcrKey(false, 128) | p.clock
}

// OnEvict implements Policy.
func (p *LCR) OnEvict(int, int) {}

// SetHint attaches the predictor's locality classification to a resident
// line: good=true marks good locality; score is the 8-bit confidence from
// the CTR Q-table. The line's stamp is kept.
func (p *LCR) SetHint(set, way int, good bool, score uint8) {
	i := set*p.ways + way
	p.key[i] = lcrKey(good, score) | p.key[i]&lcrStampMask
}

// Hint reports the current flag/score of a line (for tests and stats).
func (p *LCR) Hint(set, way int) (good bool, score uint8) {
	k := p.key[set*p.ways+way]
	good = k&lcrGood != 0
	score = uint8(k >> lcrRankShift)
	if !good {
		score = 255 - score
	}
	return good, score
}

// Victim implements Algorithm 2 as one minimum over the set's keys (see the
// encoding above). Keys tie only between never-touched lines (stamp 0);
// the lowest such way wins, as in the two-pass form.
func (p *LCR) Victim(set int) int {
	keys := p.key[set*p.ways : (set+1)*p.ways]
	victim, best := 0, keys[0]
	for w := 1; w < len(keys); w++ {
		if k := keys[w]; k < best {
			victim, best = w, k
		}
	}
	return victim
}

// StorageBitsPerLine is the LCR metadata cost per cache line (Table 2:
// 1 prediction bit + 8 score bits).
const StorageBitsPerLine = 9

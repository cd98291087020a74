package cache

// LRU is the classic least-recently-used policy, the paper's baseline for
// both the CTR cache (Table 3) and the data hierarchy.
//
// A Cache of up to 16 ways keeps an LRU set's recency order in its own set
// record and never calls this type (see Cache.touch). Wider caches use it
// through the Policy interface: per-line last-touch stamps, the victim the
// oldest, ties to the lowest way. Both choose identical victims.
type LRU struct {
	ways  int
	stamp []uint64 // sets*ways last-touch sequence numbers
	clock uint64
}

// NewLRU returns a new LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (p *LRU) Name() string { return "LRU" }

// Reset implements Policy.
func (p *LRU) Reset(sets, ways int) {
	p.ways = ways
	p.stamp = make([]uint64, sets*ways)
	p.clock = 0
}

func (p *LRU) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

// OnHit implements Policy.
func (p *LRU) OnHit(set, way int, _ Event) { p.touch(set, way) }

// OnInsert implements Policy.
func (p *LRU) OnInsert(set, way int, _ Event) { p.touch(set, way) }

// OnEvict implements Policy.
func (p *LRU) OnEvict(int, int) {}

// Victim implements Policy: the least recently touched way.
func (p *LRU) Victim(set int) int {
	base := set * p.ways
	victim, oldest := 0, p.stamp[base]
	for w := 1; w < p.ways; w++ {
		if p.stamp[base+w] < oldest {
			victim, oldest = w, p.stamp[base+w]
		}
	}
	return victim
}

// Random evicts a pseudo-random way; it is the degenerate baseline used in
// ablation benches.
type Random struct {
	ways  int
	state uint64
}

// NewRandom returns a Random policy with a fixed seed for reproducibility.
func NewRandom(seed uint64) *Random { return &Random{state: seed | 1} }

// Name implements Policy.
func (p *Random) Name() string { return "Random" }

// Reset implements Policy.
func (p *Random) Reset(_, ways int) { p.ways = ways }

// OnHit implements Policy.
func (p *Random) OnHit(int, int, Event) {}

// OnInsert implements Policy.
func (p *Random) OnInsert(int, int, Event) {}

// OnEvict implements Policy.
func (p *Random) OnEvict(int, int) {}

// Victim implements Policy.
func (p *Random) Victim(int) int {
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	return int(p.state % uint64(p.ways))
}

package cache

// RRIP implements static re-reference interval prediction (SRRIP, Jaleel et
// al. ISCA'10) as configured in the paper's Fig 5 study: 2-bit RRPVs with
// insertion value 2 and maximum 3.
type RRIP struct {
	ways   int
	maxRR  uint8
	insRR  uint8
	rrpv   []uint8
	hitPro bool // promote to RRPV 0 on hit (hit-priority)
}

// NewRRIP builds SRRIP with the paper's parameters (insert 2, max 3).
func NewRRIP() *RRIP { return &RRIP{maxRR: 3, insRR: 2, hitPro: true} }

// Name implements Policy.
func (p *RRIP) Name() string { return "RRIP" }

// Reset implements Policy.
func (p *RRIP) Reset(sets, ways int) {
	p.ways = ways
	p.rrpv = make([]uint8, sets*ways)
	for i := range p.rrpv {
		p.rrpv[i] = p.maxRR
	}
}

// OnHit implements Policy.
func (p *RRIP) OnHit(set, way int, _ Event) {
	if p.hitPro {
		p.rrpv[set*p.ways+way] = 0
	} else if v := &p.rrpv[set*p.ways+way]; *v > 0 {
		*v--
	}
}

// OnInsert implements Policy.
func (p *RRIP) OnInsert(set, way int, _ Event) {
	p.rrpv[set*p.ways+way] = p.insRR
}

// OnEvict implements Policy.
func (p *RRIP) OnEvict(int, int) {}

// Victim implements Policy: find a way at max RRPV, aging the set until one
// appears.
func (p *RRIP) Victim(set int) int {
	base := set * p.ways
	for {
		for w := 0; w < p.ways; w++ {
			if p.rrpv[base+w] >= p.maxRR {
				return w
			}
		}
		for w := 0; w < p.ways; w++ {
			p.rrpv[base+w]++
		}
	}
}

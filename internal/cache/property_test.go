package cache

import (
	"testing"

	"cosmos/internal/rl"
)

// refLRU is a slow, obviously-correct LRU cache used to verify the packed
// implementation under random workloads.
type refLRU struct {
	sets, ways int
	lines      [][]refLine // per set, index 0 = MRU
}

type refLine struct {
	line  uint64
	dirty bool
}

func newRefLRU(sets, ways int) *refLRU {
	return &refLRU{sets: sets, ways: ways, lines: make([][]refLine, sets)}
}

func (r *refLRU) access(line uint64, write bool) (hit bool, evicted uint64, evDirty, didEvict bool) {
	set := int(line % uint64(r.sets))
	s := r.lines[set]
	for i := range s {
		if s[i].line == line {
			entry := s[i]
			entry.dirty = entry.dirty || write
			copy(s[1:i+1], s[:i])
			s[0] = entry
			return true, 0, false, false
		}
	}
	entry := refLine{line: line, dirty: write}
	if len(s) < r.ways {
		r.lines[set] = append([]refLine{entry}, s...)
		return false, 0, false, false
	}
	victim := s[len(s)-1]
	copy(s[1:], s[:len(s)-1])
	s[0] = entry
	return false, victim.line, victim.dirty, true
}

func TestCacheMatchesReferenceLRU(t *testing.T) {
	const sets, ways = 16, 4
	c := New("c", sets*ways*64, ways, NewLRU())
	ref := newRefLRU(sets, ways)
	rng := rl.NewRand(21)

	for i := 0; i < 100000; i++ {
		line := rng.Uint64() % 256
		write := rng.Intn(3) == 0
		got := c.Access(line, write, 0)
		hit, evLine, evDirty, didEvict := ref.access(line, write)
		if got.Hit != hit {
			t.Fatalf("step %d line %d: hit=%v ref=%v", i, line, got.Hit, hit)
		}
		if got.Evicted != didEvict {
			t.Fatalf("step %d line %d: evicted=%v ref=%v", i, line, got.Evicted, didEvict)
		}
		if didEvict && (got.EvictedLine != evLine || got.EvictedDirty != evDirty) {
			t.Fatalf("step %d line %d: victim (%d,%v), ref (%d,%v)",
				i, line, got.EvictedLine, got.EvictedDirty, evLine, evDirty)
		}
	}
}

func TestAllPoliciesVictimAlwaysValid(t *testing.T) {
	// Fuzz every policy: victims must always index a valid way, and the
	// cache must never lose a line it claims to hold.
	for name, mk := range policyNames() {
		t.Run(name, func(t *testing.T) {
			c := New("c", 8*1024, 4, mk())
			rng := rl.NewRand(5)
			recent := map[uint64]bool{}
			for i := 0; i < 30000; i++ {
				line := rng.Uint64() % 2048
				r := c.Access(line, rng.Intn(2) == 0, uint16(line))
				if !c.Contains(line) {
					t.Fatalf("line %d absent immediately after access", line)
				}
				if r.Evicted {
					delete(recent, r.EvictedLine)
				}
				recent[line] = true
			}
		})
	}
}

func TestLCRStorageConstant(t *testing.T) {
	if StorageBitsPerLine != 9 {
		t.Fatalf("LCR metadata is %d bits/line, Table 2 says 9", StorageBitsPerLine)
	}
}

// refLCR is a naive model of Algorithm 2: per-line flag, score and stamp
// kept as plain fields, and a victim chosen in two passes with explicit
// tie-breaks instead of LCR's packed one-pass keys.
type refLCR struct {
	ways  int
	lines []refLCRLine
	clock uint64
}

type refLCRLine struct {
	good  bool
	score uint8
	stamp uint64
}

func (r *refLCR) touch(set, way int) {
	r.clock++
	r.lines[set*r.ways+way].stamp = r.clock
}

// victim picks the bad line with the highest score, else the good line
// with the lowest score; ties go to the older stamp.
func (r *refLCR) victim(set int) int {
	s := r.lines[set*r.ways : (set+1)*r.ways]
	v := -1
	for w, l := range s {
		if l.good {
			continue
		}
		if v < 0 || l.score > s[v].score || l.score == s[v].score && l.stamp < s[v].stamp {
			v = w
		}
	}
	if v >= 0 {
		return v
	}
	for w, l := range s {
		if v < 0 || l.score < s[v].score || l.score == s[v].score && l.stamp < s[v].stamp {
			v = w
		}
	}
	return v
}

// lcrTee drives LCR and refLCR in lockstep behind one cache and checks
// that they agree on every victim.
type lcrTee struct {
	t       *testing.T
	lcr     *LCR
	ref     refLCR
	victims int
}

func (p *lcrTee) Name() string { return "LCR-tee" }

func (p *lcrTee) Reset(sets, ways int) {
	p.lcr.Reset(sets, ways)
	p.ref = refLCR{ways: ways, lines: make([]refLCRLine, sets*ways)}
}

func (p *lcrTee) OnHit(set, way int, ev Event) {
	p.lcr.OnHit(set, way, ev)
	p.ref.touch(set, way)
}

func (p *lcrTee) OnInsert(set, way int, ev Event) {
	p.lcr.OnInsert(set, way, ev)
	p.ref.lines[set*p.ref.ways+way] = refLCRLine{score: 128}
	p.ref.touch(set, way)
}

func (p *lcrTee) OnEvict(set, way int) { p.lcr.OnEvict(set, way) }

func (p *lcrTee) SetHint(set, way int, good bool, score uint8) {
	p.lcr.SetHint(set, way, good, score)
	l := &p.ref.lines[set*p.ref.ways+way]
	l.good, l.score = good, score
}

func (p *lcrTee) Victim(set int) int {
	got, want := p.lcr.Victim(set), p.ref.victim(set)
	if got != want {
		p.t.Fatalf("set %d: LCR victim = way %d, reference = way %d (%+v)",
			set, got, want, p.ref.lines[set*p.ref.ways:(set+1)*p.ref.ways])
	}
	p.victims++
	return got
}

// TestLCRMatchesReference drives a 16-way LCR cache with random fills, hits
// and hints. Scores are drawn from a few values so that score ties, broken
// by stamp, are common.
func TestLCRMatchesReference(t *testing.T) {
	const sets, ways = 4, 16
	tee := &lcrTee{t: t, lcr: NewLCR()}
	c := New("c", sets*ways*64, ways, tee)
	rng := rl.NewRand(33)
	score := func() uint8 {
		if rng.Intn(4) == 0 {
			return uint8(rng.Intn(256))
		}
		return uint8(rng.Intn(4)) * 85
	}
	for i := 0; i < 200_000; i++ {
		r := c.Access(rng.Uint64()%(4*sets*ways), rng.Intn(3) == 0, 0)
		if rng.Intn(4) != 0 {
			tee.SetHint(r.Set, r.Way, rng.Intn(3) == 0, score())
		}
		if rng.Intn(8) == 0 {
			tee.SetHint(rng.Intn(sets), rng.Intn(ways), rng.Intn(2) == 0, score())
		}
		if i > sets*ways*4 && rng.Intn(16) == 0 {
			tee.Victim(rng.Intn(sets))
		}
	}
	if tee.victims < 10_000 {
		t.Fatalf("only %d victims compared", tee.victims)
	}
}

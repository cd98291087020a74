package cache

import (
	"fmt"
	"testing"

	"cosmos/internal/memsys"
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

// invalidate drops the line if present, reporting whether it was dirty.
func (r *refLRU) invalidate(line uint64) (present, dirty bool) {
	set := int(line % uint64(r.sets))
	s := r.lines[set]
	for i := range s {
		if s[i].line == line {
			dirty = s[i].dirty
			r.lines[set] = append(s[:i], s[i+1:]...)
			return true, dirty
		}
	}
	return false, false
}

// flush empties every set and returns the number of dirty lines dropped.
func (r *refLRU) flush() (dirty int) {
	for set, s := range r.lines {
		for _, l := range s {
			if l.dirty {
				dirty++
			}
		}
		r.lines[set] = s[:0]
	}
	return dirty
}

// wbLog is a terminal Level that records the line of every writeback it
// receives.
type wbLog struct {
	*wbSink
	got []uint64
}

func (l *wbLog) Writeback(r memsys.Request) { l.got = append(l.got, r.Line) }

// TestCacheMatchesReferenceLRU checks an LRU cache against refLRU at every
// associativity the packed recency order covers (up to 16 ways) and above
// it, where LRU falls back to stamps. One stream drives two identical
// caches: one through Access, which must report every victim, and one
// wrapped in a Level whose Probe must forward exactly the dirty victims,
// with the reference's line, and nothing for a clean one. The stream
// repeats its previous line often (the MRU-repeat memo's fast path) and
// interleaves Invalidate and Flush, which must clear that memo.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16, 32, 64} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			const sets = 16
			c := New("c", sets*ways*64, ways, NewLRU())
			down := &wbLog{wbSink: newWBSink()}
			lv := NewLevel(New("lv", sets*ways*64, ways, NewLRU()), 1, down)
			ref := newRefLRU(sets, ways)
			rng := rl.NewRand(21)
			span := uint64(4 * sets * ways)
			var line uint64
			var evictions, cleanEvictions, memoInvalidations, flushes int

			for i := 0; i < 100000; i++ {
				switch r := rng.Intn(1 << 14); {
				case r == 0:
					if want := ref.flush(); c.Flush() != want || lv.Cache().Flush() != want {
						t.Fatalf("step %d: flush disagrees with the reference's %d dirty lines", i, want)
					}
					flushes++
					continue
				case r < 1<<10:
					target := rng.Uint64() % span
					if r < 3<<8 {
						target = line // the memo's line
						memoInvalidations++
					}
					wantP, wantD := ref.invalidate(target)
					gotP, gotD := c.Invalidate(target)
					lvP, lvD := lv.Cache().Invalidate(target)
					if gotP != wantP || gotD != wantD || lvP != wantP || lvD != wantD {
						t.Fatalf("step %d: invalidate %d = (%v,%v) and (%v,%v), ref (%v,%v)",
							i, target, gotP, gotD, lvP, lvD, wantP, wantD)
					}
					continue
				case r < 6<<10:
					// repeat the previous line
				default:
					line = rng.Uint64() % span
				}
				write := rng.Intn(3) == 0
				got := c.Access(line, write, 0)
				down.got = down.got[:0]
				lvHit := lv.Probe(line, write, 0, 0, uint64(i))
				hit, evLine, evDirty, didEvict := ref.access(line, write)
				if got.Hit != hit || lvHit != hit {
					t.Fatalf("step %d line %d: hit=%v probe hit=%v ref=%v", i, line, got.Hit, lvHit, hit)
				}
				if got.Evicted != didEvict {
					t.Fatalf("step %d line %d: evicted=%v ref=%v", i, line, got.Evicted, didEvict)
				}
				if didEvict && (got.EvictedLine != evLine || got.EvictedDirty != evDirty) {
					t.Fatalf("step %d line %d: victim (%d,%v), ref (%d,%v)",
						i, line, got.EvictedLine, got.EvictedDirty, evLine, evDirty)
				}
				switch {
				case didEvict && evDirty:
					if len(down.got) != 1 || down.got[0] != evLine {
						t.Fatalf("step %d line %d: dirty victim %d reached down as %v", i, line, evLine, down.got)
					}
				case len(down.got) != 0:
					t.Fatalf("step %d line %d: no dirty victim, but down received %v", i, line, down.got)
				}
				if didEvict {
					evictions++
					if !evDirty {
						cleanEvictions++
					}
				}
			}
			if evictions < 10000 || cleanEvictions < evictions/4 || memoInvalidations < 1000 || flushes < 2 {
				t.Fatalf("stream too tame: %d evictions, %d clean, %d memo invalidations, %d flushes",
					evictions, cleanEvictions, memoInvalidations, flushes)
			}
		})
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

// TestLCRMatchesReference drives LCR caches of 2, 16 and 64 ways with
// random fills, hits and hints. Scores are drawn from a few values so that
// score ties, broken by stamp, are common.
func TestLCRMatchesReference(t *testing.T) {
	for _, ways := range []int{2, 16, 64} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			const sets = 4
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
				r := c.Access(rng.Uint64()%uint64(4*sets*ways), rng.Intn(3) == 0, 0)
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
		})
	}
}

// TestLCRHintRoundTrip checks that Hint decodes exactly what SetHint
// encoded, for every (good, score) pair, on a fresh line and again after
// hits have replaced its stamp.
func TestLCRHintRoundTrip(t *testing.T) {
	p := NewLCR()
	p.Reset(2, 4)
	if g, sc := p.Hint(1, 3); g || sc != 0 {
		t.Fatalf("untouched line hints (%v, %d), want (false, 0)", g, sc)
	}
	for _, good := range []bool{false, true} {
		for s := 0; s < 256; s++ {
			set, way := s&1, s&3
			p.SetHint(set, way, good, uint8(s))
			if g, sc := p.Hint(set, way); g != good || sc != uint8(s) {
				t.Fatalf("SetHint(%v, %d) then Hint = (%v, %d)", good, s, g, sc)
			}
			p.OnHit(set, way, Event{})
			p.OnHit(set, way^1, Event{})
			if g, sc := p.Hint(set, way); g != good || sc != uint8(s) {
				t.Fatalf("SetHint(%v, %d), hits, then Hint = (%v, %d)", good, s, g, sc)
			}
		}
	}
	p.OnInsert(0, 0, Event{})
	if g, sc := p.Hint(0, 0); g || sc != 128 {
		t.Fatalf("fill left hint (%v, %d), want (false, 128)", g, sc)
	}
}

// FuzzLCRVictim decodes the input into fills, hits, hints and victim
// queries on one LCR cache and checks every victim against refLCR. The
// first byte picks the associativity (1 to 64 ways); each following
// four-byte group is one operation.
func FuzzLCRVictim(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 0, 0, 2, 0, 0, 1, 3, 0, 0, 0})
	f.Add([]byte{4, 0, 7, 0, 0, 6, 3, 1, 200, 0, 40, 0, 0, 3, 1, 0, 0})
	f.Add([]byte{6, 1, 255, 1, 0, 2, 1, 9, 17, 6, 0, 3, 255, 3, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const sets = 2
		ways := 1 << (data[0] % 7)
		tee := &lcrTee{t: t, lcr: NewLCR()}
		c := New("c", sets*ways*64, ways, tee)
		for ops := data[1:]; len(ops) >= 4; ops = ops[4:] {
			op, x, y, score := ops[0], int(ops[1]), int(ops[2]), ops[3]
			switch op % 4 {
			case 0, 1: // a load or store: a hit, or a fill with a victim
				c.Access(uint64(x|y<<8)%uint64(4*sets*ways), op%4 == 1, 0)
			case 2:
				tee.SetHint(x%sets, y%ways, op&4 != 0, score)
			case 3:
				tee.Victim(x % sets)
			}
		}
	})
}

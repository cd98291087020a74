package cache

import (
	"encoding/binary"
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

// contains reports whether the line is resident.
func (r *refLRU) contains(line uint64) bool {
	for _, l := range r.lines[line%uint64(r.sets)] {
		if l.line == line {
			return true
		}
	}
	return false
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

// lruTee drives one line stream through two identical LRU caches and
// refLRU: c through Access, which must report every eviction and drop the
// reference's victim, with its line when dirty, and lv's cache through
// Level.Probe, which must forward exactly the dirty victims,
// with the reference's line, and nothing for a clean one.
type lruTee struct {
	t    testing.TB
	c    *Cache
	lv   *Level
	down *wbLog
	ref  *refLRU
}

func newLRUTee(t testing.TB, sets, ways int) *lruTee {
	down := &wbLog{wbSink: newWBSink()}
	return &lruTee{
		t:    t,
		c:    New("c", sets*ways*64, ways, NewLRU()),
		lv:   NewLevel(New("lv", sets*ways*64, ways, NewLRU()), 1, down),
		down: down,
		ref:  newRefLRU(sets, ways),
	}
}

// access checks one load or store and reports the reference's eviction.
func (e *lruTee) access(line uint64, write bool) (didEvict, evDirty bool) {
	e.t.Helper()
	got := e.c.Access(line, write, 0)
	e.down.got = e.down.got[:0]
	lvHit := e.lv.Probe(line, write, 0, 0, 0)
	hit, evLine, evDirty, didEvict := e.ref.access(line, write)
	if got.Hit != hit || lvHit != hit {
		e.t.Fatalf("line %#x: hit=%v probe hit=%v ref=%v", line, got.Hit, lvHit, hit)
	}
	if got.Evicted != didEvict {
		e.t.Fatalf("line %#x: evicted=%v ref=%v", line, got.Evicted, didEvict)
	}
	if didEvict {
		want := evLine
		if !evDirty {
			want = 0 // a clean victim's line is not rebuilt
		}
		if got.EvictedLine != want || got.EvictedDirty != evDirty || e.c.Contains(evLine) {
			e.t.Fatalf("line %#x: victim (%#x,%v), ref (%#x,%v), still resident %v",
				line, got.EvictedLine, got.EvictedDirty, evLine, evDirty, e.c.Contains(evLine))
		}
	}
	switch {
	case didEvict && evDirty:
		if len(e.down.got) != 1 || e.down.got[0] != evLine {
			e.t.Fatalf("line %#x: dirty victim %#x reached down as %v", line, evLine, e.down.got)
		}
	case len(e.down.got) != 0:
		e.t.Fatalf("line %#x: no dirty victim, but down received %v", line, e.down.got)
	}
	return didEvict, evDirty
}

// invalidate checks Invalidate on both caches.
func (e *lruTee) invalidate(line uint64) {
	e.t.Helper()
	wantP, wantD := e.ref.invalidate(line)
	gotP, gotD := e.c.Invalidate(line)
	lvP, lvD := e.lv.Cache().Invalidate(line)
	if gotP != wantP || gotD != wantD || lvP != wantP || lvD != wantD {
		e.t.Fatalf("invalidate %#x = (%v,%v) and (%v,%v), ref (%v,%v)",
			line, gotP, gotD, lvP, lvD, wantP, wantD)
	}
}

// flush checks Flush on both caches.
func (e *lruTee) flush() {
	e.t.Helper()
	if want := e.ref.flush(); e.c.Flush() != want || e.lv.Cache().Flush() != want {
		e.t.Fatalf("flush disagrees with the reference's %d dirty lines", want)
	}
}

// TestCacheMatchesReferenceLRU checks an LRU cache against refLRU at every
// associativity the cache-owned recency order covers (up to 16 ways) and
// above it, where the LRU policy's stamps decide. The stream repeats its
// previous line often (the MRU-repeat memo's fast path) and interleaves
// Invalidate and Flush, which must clear that memo.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16, 32, 64} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			const sets = 16
			e := newLRUTee(t, sets, ways)
			rng := rl.NewRand(21)
			span := uint64(4 * sets * ways)
			var line uint64
			var evictions, cleanEvictions, memoInvalidations, flushes int

			for i := 0; i < 100000; i++ {
				switch r := rng.Intn(1 << 14); {
				case r == 0:
					e.flush()
					flushes++
					continue
				case r < 1<<10:
					target := rng.Uint64() % span
					if r < 3<<8 {
						target = line // the memo's line
						memoInvalidations++
					}
					e.invalidate(target)
					continue
				case r < 6<<10:
					// repeat the previous line
				default:
					line = rng.Uint64() % span
				}
				if didEvict, evDirty := e.access(line, rng.Intn(3) == 0); didEvict {
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

// FuzzCacheLRU decodes the input into loads, stores, invalidations,
// flushes and lookups on LRU caches of 1 to 64 ways and 1 to 8 sets, and
// checks every outcome against refLRU. The first byte picks the geometry,
// the next eight a 64-bit base line; each following two-byte group is one
// operation on a line derived from the base, so tags span the full 64-bit
// range. One line form scatters lines over sets and tags; the other keeps
// the base's set and partial-tag byte and varies only the tag bits above
// it, so candidate ways collide in the SWAR scan.
func FuzzCacheLRU(f *testing.F) {
	f.Add([]byte{0x03, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 8, 1, 0, 2, 16, 3, 24, 4, 5, 1, 7, 1, 0, 1})
	f.Add([]byte{0x4f, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88,
		16, 1, 16, 2, 16, 3, 16, 4, 16, 5, 16, 6, 16, 7, 16, 8, 16, 9, 16, 10, 16, 11,
		16, 12, 16, 13, 16, 14, 16, 15, 16, 16, 16, 17, 16, 1, 24, 2, 21, 3, 23, 1, 6, 0})
	f.Add([]byte{0xbf, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 8, 9, 0, 200, 13, 9, 15, 200, 6, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		ways, sets := 1+int(data[0]&63), 1<<(data[0]>>6)
		base := binary.LittleEndian.Uint64(data[1:9])
		shift := uint(log2(sets))
		e := newLRUTee(t, sets, ways)
		for ops := data[9:]; len(ops) >= 2; ops = ops[2:] {
			op, x := ops[0], uint64(ops[1])
			line := base ^ x*0x9E3779B97F4A7C15
			if op&16 != 0 {
				line = base ^ x<<(shift+8)
			}
			switch op % 8 {
			case 5:
				e.invalidate(line)
			case 6:
				e.flush()
			case 7:
				want := e.ref.contains(line)
				if e.c.Contains(line) != want || e.lv.Cache().Contains(line) != want {
					t.Fatalf("Contains(%#x) disagrees with the reference's %v", line, want)
				}
			default:
				e.access(line, op&8 != 0)
			}
		}
	})
}

func TestAllPoliciesVictimAlwaysValid(t *testing.T) {
	// Fuzz every policy: victims must always index a valid way, and the
	// cache must never lose a line it claims to hold. recent shadows the
	// resident set: each access adds its line, and each eviction drops
	// exactly one shadowed line, the one the cache no longer holds (a
	// dirty victim's reported line).
	const lines = 8 * 1024 / 64
	for name, mk := range policyNames() {
		t.Run(name, func(t *testing.T) {
			c := New("c", 8*1024, 4, mk())
			rng := rl.NewRand(5)
			recent := map[uint64]bool{}
			check := func(i int) {
				if len(recent) > lines {
					t.Fatalf("after %d accesses the shadow holds %d lines, the cache %d", i, len(recent), lines)
				}
				for l := range recent {
					if !c.Contains(l) {
						t.Fatalf("after %d accesses line %d is lost: resident by the shadow, absent from the cache", i, l)
					}
				}
			}
			for i := 0; i < 30000; i++ {
				line := rng.Uint64() % 2048
				r := c.Access(line, rng.Intn(2) == 0, uint16(line))
				if !c.Contains(line) {
					t.Fatalf("line %d absent immediately after access", line)
				}
				if r.Evicted {
					var gone []uint64
					for l := range recent {
						if !c.Contains(l) {
							gone = append(gone, l)
						}
					}
					if len(gone) != 1 || r.EvictedDirty && gone[0] != r.EvictedLine {
						t.Fatalf("access %d evicted %+v; shadowed lines gone from the cache: %v", i, r, gone)
					}
					delete(recent, gone[0])
				}
				recent[line] = true
				if i%1000 == 999 {
					check(i + 1)
				}
			}
			check(30000)
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

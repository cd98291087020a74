// Package cache implements the set-associative caches used throughout the
// simulator — data caches (L1/L2/LLC), the counter (CTR) cache, and the
// locality-centric LCR-CTR cache — with pluggable replacement policies:
// LRU, Random, RRIP, SHiP, Mockingjay and the paper's LCR policy
// (Algorithm 2).
package cache

import (
	"fmt"
	"math/bits"

	"cosmos/internal/telemetry"
)

// Policy decides which way of a set to evict and observes hits, fills and
// evictions so it can maintain its own recency/reuse state. Policies are
// sized by Reset before first use.
type Policy interface {
	Name() string
	// Reset (re)initialises the policy for a cache with the given geometry.
	Reset(sets, ways int)
	// OnHit is invoked when an access hits way `way` of set `set`.
	OnHit(set, way int, ev Event)
	// OnInsert is invoked when a line is filled into way `way` of `set`.
	OnInsert(set, way int, ev Event)
	// OnEvict is invoked just before the line in (set, way) is replaced.
	OnEvict(set, way int)
	// Victim selects the way to evict from a full set.
	Victim(set int) int
}

// Event carries access context to the policy: the line tag, a region
// signature standing in for the PC (used by SHiP and Mockingjay), and the
// cache-local access sequence number.
type Event struct {
	Tag uint64
	Sig uint16
	Seq uint64
}

// Stats accumulates hit/miss/traffic counters for one cache.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// MissRate returns Misses/Accesses (0 if no accesses).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HitRate returns Hits/Accesses (0 if no accesses).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is a set-associative cache indexed by cache-line number
// (byte address >> 6). It is a tag store only: data payloads live in the
// functional layer (internal/enclave), not here.
//
// The tag store is laid out for the probe loop: one uint64 slab holding a
// contiguous record per set, so a probe finds the valid mask, the partial
// tags, the recency order and the dirty bits on the first host cache line
// it touches. A record is rec words:
//
//	recValid    way-occupancy bitmask
//	recDirty    dirty bitmask
//	recOrder    packed LRU recency order (cache-owned LRU only, see touch)
//	recPartial  pw partial-tag words, then ways full tags
//
// A lookup scans packed tags guided by the valid mask and victim selection
// finds a free way with one trailing-zeros instruction. Set index and tag
// shift are precomputed at construction. A zeroed record is an empty set,
// so New writes no set memory.
type Cache struct {
	name  string
	sets  int
	ways  int
	shift uint   // log2(sets): tag = line >> shift
	mask  uint64 // sets - 1
	wmask uint64 // ways low bits set: the full-set valid mask

	slab []uint64 // sets records of rec words each
	rec  int      // words per record: tags + ways
	// tags is the record offset of way 0's full tag. The pw = (ways+7)/8
	// words before it, from recPartial on, hold the low byte of every
	// way's tag, eight ways packed per uint64, so a lookup compares all
	// ways at once with a SWAR zero-byte scan and only candidate ways touch
	// the full tags. Bytes of invalid ways are stale; candidates are
	// verified against the valid mask and the full tag, so stale or
	// colliding bytes cost one extra compare, never a wrong answer.
	tags int

	pol Policy
	// lru is set when pol is the plain LRU policy and ways <= 16: the cache
	// then keeps each set's recency order in the record's recOrder word and
	// never calls the policy. Wider LRU caches go through the Policy
	// interface like every other policy.
	lru bool
	// lruID is the order a zeroed recOrder word stands for (initialOrder);
	// lruVictim is the bit offset of the LRU way's nibble in recOrder.
	lruID     uint64
	lruVictim uint
	seq       uint64

	// MRU-repeat memo (cache-owned LRU only): the line, set, record offset
	// and way of the most recent access. A repeat of that line is answered
	// without lookup or policy work — the line is necessarily still
	// resident (the most recently touched way is never the eviction
	// victim, and any fill that displaces it retargets the memo) and
	// already at the MRU position, so only the hit counters and the dirty
	// bit need updating. lastLine is ^0 when no memo is valid.
	lastLine                  uint64
	lastSet, lastRec, lastWay int

	Stats Stats
}

// Record word offsets; the partial words run from recPartial to tags.
const (
	recValid = iota
	recDirty
	recOrder
	recPartial
)

// Result reports the outcome of an Access.
type Result struct {
	Hit          bool
	Set, Way     int
	Evicted      bool
	EvictedLine  uint64 // line number of the victim, valid when EvictedDirty
	EvictedDirty bool
}

// ValidateGeometry checks a (size, ways) pair the way New would, but returns
// a descriptive error instead of panicking. Config validation calls it so
// bad geometry is rejected at the API boundary rather than deep in Step.
func ValidateGeometry(name string, sizeBytes, ways int) error {
	const lineSize = 64
	if sizeBytes <= 0 {
		return fmt.Errorf("cache %s: size %d must be positive", name, sizeBytes)
	}
	if ways <= 0 {
		return fmt.Errorf("cache %s: ways %d must be positive", name, ways)
	}
	if ways > 64 {
		return fmt.Errorf("cache %s: ways %d exceeds the supported maximum of 64", name, ways)
	}
	if sizeBytes%(ways*lineSize) != 0 {
		return fmt.Errorf("cache %s: size %d not a multiple of ways(%d) x %dB lines",
			name, sizeBytes, ways, lineSize)
	}
	sets := sizeBytes / (ways * lineSize)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d (size %d / ways %d) not a power of two",
			name, sets, sizeBytes, ways)
	}
	return nil
}

// New builds a cache of sizeBytes capacity with the given associativity and
// 64-byte lines. The number of sets must come out a power of two; ways is
// capped at 64 (the bitmask width).
func New(name string, sizeBytes, ways int, pol Policy) *Cache {
	if err := ValidateGeometry(name, sizeBytes, ways); err != nil {
		panic(err.Error())
	}
	sets := sizeBytes / (ways * 64)
	tags := recPartial + (ways+7)/8
	c := &Cache{
		name:      name,
		sets:      sets,
		ways:      ways,
		shift:     uint(log2(sets)),
		mask:      uint64(sets - 1),
		wmask:     ^uint64(0) >> (64 - uint(ways)),
		rec:       tags + ways,
		tags:      tags,
		pol:       pol,
		lruVictim: 4 * uint(ways-1),
		lastLine:  ^uint64(0),
	}
	c.slab = make([]uint64, sets*c.rec)
	if _, ok := pol.(*LRU); ok && ways <= 16 {
		c.lru, c.lruID = true, initialOrder(ways)
	} else {
		pol.Reset(sets, ways)
	}
	return c
}

// Name returns the cache's label.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SizeBytes returns the capacity.
func (c *Cache) SizeBytes() int { return c.sets * c.ways * 64 }

// Policy exposes the replacement policy (e.g. to feed LCR hints).
func (c *Cache) Policy() Policy { return c.pol }

func (c *Cache) index(lineNum uint64) (set int, tag uint64) {
	return int(lineNum & c.mask), lineNum >> (c.shift & 63)
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// SWAR constants: lsb repeats 0x01 in every byte, msb repeats 0x80.
const (
	swarLSB = 0x0101010101010101
	swarMSB = 0x8080808080808080
)

// record returns set's record.
func (c *Cache) record(set int) []uint64 {
	b := set * c.rec
	return c.slab[b : b+c.rec : b+c.rec]
}

// findWay returns the way of record r holding tag, or -1. The partial-tag
// words narrow the search with a SWAR zero-byte scan — a miss usually costs
// one word load per eight ways instead of a tag walk — and each candidate is
// confirmed against the valid mask and the full tag. The zero-byte trick can
// flag false positives in bytes above a true zero byte (borrow propagation)
// or in the padding bytes past the last way; they fail the confirm and cost
// nothing else. Fills are miss-only, so at most one valid way can match and
// candidate order is irrelevant.
func (c *Cache) findWay(r []uint64, tag uint64) int {
	pb := uint64(uint8(tag)) * swarLSB
	valid := r[recValid]
	for wd, p := range r[recPartial:c.tags] {
		x := p ^ pb
		for m := (x - swarLSB) &^ x & swarMSB; m != 0; m &= m - 1 {
			w := wd<<3 | bits.TrailingZeros64(m)>>3
			if valid&wayBit(w) != 0 && r[c.tags+w] == tag {
				return w
			}
		}
	}
	return -1
}

// Nibble-SWAR constants: repeated 0x1 and 0x8 in every 4-bit lane.
const (
	nibLSB = 0x1111111111111111
	nibMSB = 0x8888888888888888
)

// initialOrder returns the recency order a zeroed recOrder word stands for
// in an LRU cache of up to 16 ways: the reversed identity permutation,
// nibble w holding way ways-1-w. The order word is stored XORed with it,
// so an all-zero record is the initial order. Way 0 then sits at the LRU
// end, which reproduces a stamp scan's lowest-index-first choice among
// never-touched ways.
func initialOrder(ways int) uint64 { return 0x0123456789ABCDEF >> (4 * uint(16-ways)) }

// touch promotes way to MRU in record r's packed recency order (nibble 0
// the MRU way, nibble ways-1 the LRU way). The way's nibble is located
// with a SWAR zero-nibble scan (exact for the lowest zero lane, and each
// way appears exactly once); the lanes below it shift up one and the way
// enters lane 0.
func (c *Cache) touch(r []uint64, way int) {
	o := r[recOrder] ^ c.lruID
	x := o ^ uint64(way)*nibLSB
	below := uint64(1)<<(uint(bits.TrailingZeros64((x-nibLSB)&^x&nibMSB))&60) - 1
	r[recOrder] = ((o&below)<<4 | uint64(way) | o&^(below<<4|0xF)) ^ c.lruID
}

// victim returns the LRU way of record r. The LRU lane of lruID holds way
// 0, so the stored word's lane needs no decoding.
func (c *Cache) victim(r []uint64) int {
	return int(r[recOrder] >> (c.lruVictim & 63) & 0xF)
}

// wayBit is way's bit in a valid or dirty mask. Masking the shift count
// (ways never exceed 64) spares the compiler's check for oversized shifts.
func wayBit(way int) uint64 { return 1 << (uint(way) & 63) }

// setPartial records the low tag byte of way in record r.
func (c *Cache) setPartial(r []uint64, way int, b uint8) {
	i := recPartial + way>>3
	sh := uint(way&7) * 8 & 63
	r[i] = r[i]&^(0xff<<sh) | uint64(b)<<sh
}

// RegisterMetrics registers this cache's hit/miss/eviction/writeback
// counters and per-interval hit/miss rates under the given telemetry scope.
// The counters are sampled by pointer, so registration adds no cost to
// Access.
func (c *Cache) RegisterMetrics(s *telemetry.Scope) {
	s.Counter("accesses", &c.Stats.Accesses)
	s.Counter("hits", &c.Stats.Hits)
	s.Counter("misses", &c.Stats.Misses)
	s.Counter("evictions", &c.Stats.Evictions)
	s.Counter("writebacks", &c.Stats.Writebacks)
	s.RateOf("hit_rate", &c.Stats.Hits, &c.Stats.Accesses)
	s.RateOf("miss_rate", &c.Stats.Misses, &c.Stats.Accesses)
}

// Access performs a load or store of the given cache-line number, filling on
// miss and evicting per the policy. sig tags the access's code region. A
// write-back owner needs a victim's line only to write it back, so the
// Result carries it only for a dirty victim: a clean eviction skips the
// victim's tag load.
func (c *Cache) Access(lineNum uint64, write bool, sig uint16) Result {
	hit, set, way, evLine, ev, evDirty := c.probe(lineNum, write, sig)
	return Result{Hit: hit, Set: set, Way: way, Evicted: ev, EvictedLine: evLine, EvictedDirty: evDirty}
}

// probe is the access engine behind Access: identical semantics, but the
// outcome comes back in registers instead of a Result struct, which is what
// the Level.Probe hot path wants — the struct fill-and-copy is measurable at
// simulator access rates. Exported callers go through the Access wrapper.
//
// evictedLine is reconstructed from the victim's tag only when the victim
// is dirty: a clean victim's line is needed by nobody, and skipping the tag
// load saves a likely cache miss per eviction. Otherwise it is 0.
func (c *Cache) probe(lineNum uint64, write bool, sig uint16) (hit bool, set, way int, evictedLine uint64, evicted, evictedDirty bool) {
	if lineNum == c.lastLine {
		// MRU repeat: resident and already MRU — the lookup and the
		// recency touch are both no-ops.
		c.Stats.Accesses++
		c.Stats.Hits++
		if write {
			c.slab[c.lastRec+recDirty] |= wayBit(c.lastWay)
		}
		return true, c.lastSet, c.lastWay, 0, false, false
	}
	c.Stats.Accesses++
	set, tag := c.index(lineNum)
	r := c.record(set)

	// findWay, written out: a call here would spill every live value.
	w := -1
	pb := uint64(uint8(tag)) * swarLSB
	valid := r[recValid]
scan:
	for wd, p := range r[recPartial:c.tags] {
		x := p ^ pb
		for m := (x - swarLSB) &^ x & swarMSB; m != 0; m &= m - 1 {
			if cw := wd<<3 | bits.TrailingZeros64(m)>>3; valid&wayBit(cw) != 0 && r[c.tags+cw] == tag {
				w = cw
				break scan
			}
		}
	}
	if w >= 0 {
		c.Stats.Hits++
		if write {
			r[recDirty] |= wayBit(w)
		}
		if c.lru {
			c.touch(r, w)
			c.lastLine, c.lastSet, c.lastRec, c.lastWay = lineNum, set, set*c.rec, w
		} else {
			c.seq++
			c.pol.OnHit(set, w, Event{Tag: tag, Sig: sig, Seq: c.seq})
		}
		return true, set, w, 0, false, false
	}

	c.Stats.Misses++
	// Prefer an invalid way (the lowest, matching the old linear scan).
	if inv := ^valid & c.wmask; inv != 0 {
		way = bits.TrailingZeros64(inv)
	} else {
		if c.lru {
			way = c.victim(r)
		} else {
			way = c.policyVictim(set)
		}
		c.Stats.Evictions++
		evicted = true
		evictedDirty = r[recDirty]&wayBit(way) != 0
		if evictedDirty {
			c.Stats.Writebacks++
			evictedLine = r[c.tags+way]<<(c.shift&63) | uint64(set)
		}
		if !c.lru {
			c.pol.OnEvict(set, way)
		}
	}
	r[c.tags+way] = tag
	c.setPartial(r, way, uint8(tag))
	r[recValid] |= wayBit(way)
	if write {
		r[recDirty] |= wayBit(way)
	} else {
		r[recDirty] &^= wayBit(way)
	}
	if c.lru {
		c.touch(r, way)
		c.lastLine, c.lastSet, c.lastRec, c.lastWay = lineNum, set, set*c.rec, way
	} else {
		c.seq++
		c.pol.OnInsert(set, way, Event{Tag: tag, Sig: sig, Seq: c.seq})
	}
	return false, set, way, evictedLine, evicted, evictedDirty
}

// policyVictim asks the policy for set's victim and checks it names a way.
func (c *Cache) policyVictim(set int) int {
	way := c.pol.Victim(set)
	if way < 0 || way >= c.ways {
		panic(fmt.Sprintf("cache %s: policy %s returned invalid victim %d", c.name, c.pol.Name(), way))
	}
	return way
}

// Contains probes for the line without disturbing replacement state or
// statistics. It is used to validate data-location predictions.
func (c *Cache) Contains(lineNum uint64) bool {
	set, tag := c.index(lineNum)
	return c.findWay(c.record(set), tag) >= 0
}

// Invalidate drops the line if present, returning whether it was dirty.
func (c *Cache) Invalidate(lineNum uint64) (present, dirty bool) {
	set, tag := c.index(lineNum)
	r := c.record(set)
	w := c.findWay(r, tag)
	if w < 0 {
		return false, false
	}
	bit := wayBit(w)
	d := r[recDirty]&bit != 0
	r[recValid] &^= bit
	r[recDirty] &^= bit
	c.lastLine = ^uint64(0)
	return true, d
}

// Flush invalidates every line, returning the number of dirty lines dropped.
func (c *Cache) Flush() (dirty int) {
	c.lastLine = ^uint64(0)
	for b := 0; b < len(c.slab); b += c.rec {
		r := c.slab[b : b+recPartial]
		dirty += bits.OnesCount64(r[recValid] & r[recDirty])
		r[recValid] = 0
		r[recDirty] = 0
	}
	return dirty
}

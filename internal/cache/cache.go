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
// The tag store is laid out for the probe loop: one contiguous uint64 tag
// array (sets*ways, row-major) plus per-set valid/dirty bitmasks, so a
// lookup scans packed tags guided by a popcount walk over the valid mask
// and victim selection finds a free way with one trailing-zeros
// instruction. Set index and tag shift are precomputed at construction.
type Cache struct {
	name  string
	sets  int
	ways  int
	shift uint   // log2(sets): tag = line >> shift
	mask  uint64 // sets - 1
	wmask uint64 // ways low bits set: the full-set valid mask

	tags  []uint64 // sets*ways line tags, row-major
	valid []uint64 // per-set way-occupancy bitmask
	dirty []uint64 // per-set dirty bitmask
	// partial holds the low byte of every way's tag, eight ways packed per
	// uint64 (pw words per set), so a lookup compares all ways at once with
	// a SWAR zero-byte scan and only candidate ways touch the full tag
	// array. Bytes of invalid ways are stale; candidates are verified
	// against the valid mask and the full tag, so stale or colliding bytes
	// cost one extra compare, never a wrong answer.
	partial []uint64
	pw      int // partial words per set: (ways+7)/8

	pol Policy
	// lru is set when pol is the plain LRU policy; its touch/victim
	// callbacks are then inlined on the hot path instead of dispatched
	// through the Policy interface. Semantics are identical.
	lru *LRU
	seq uint64

	// MRU-repeat memo (LRU caches only): the line, set and way of the most
	// recent access. A repeat of that line is answered without lookup or
	// policy work — the line is necessarily still resident (the most
	// recently touched way is never the eviction victim, and any fill that
	// displaces it retargets the memo) and already at the MRU position, so
	// only the hit counters and the dirty bit need updating. lastLine is
	// ^0 when no memo is valid.
	lastLine         uint64
	lastSet, lastWay int

	Stats Stats
}

// Result reports the outcome of an Access.
type Result struct {
	Hit          bool
	Set, Way     int
	Evicted      bool
	EvictedLine  uint64 // line number of the victim, valid when Evicted
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
	pw := (ways + 7) / 8
	c := &Cache{
		name:    name,
		sets:    sets,
		ways:    ways,
		shift:   uint(log2(sets)),
		mask:    uint64(sets - 1),
		wmask:   ^uint64(0) >> (64 - uint(ways)),
		tags:    make([]uint64, sets*ways),
		valid:   make([]uint64, sets),
		dirty:   make([]uint64, sets),
		partial: make([]uint64, sets*pw),
		pw:      pw,
		pol:     pol,
	}
	if l, ok := pol.(*LRU); ok {
		c.lru = l
	}
	c.lastLine = ^uint64(0)
	pol.Reset(sets, ways)
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
	return int(lineNum & c.mask), lineNum >> c.shift
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

// findWay returns the way holding tag in set, or -1. The partial-tag words
// narrow the search with a SWAR zero-byte scan — a miss usually costs one
// word load per eight ways instead of a tag walk — and each candidate is
// confirmed against the valid mask and the full tag. The zero-byte trick can
// flag false positives in bytes above a true zero byte (borrow propagation);
// they fail the confirm and cost nothing else. Fills are miss-only, so at
// most one valid way can match and candidate order is irrelevant.
func (c *Cache) findWay(base, set int, valid, tag uint64) int {
	pb := uint64(uint8(tag)) * swarLSB
	pbase := set * c.pw
	for wd := 0; wd < c.pw; wd++ {
		x := c.partial[pbase+wd] ^ pb
		for m := (x - swarLSB) &^ x & swarMSB; m != 0; m &= m - 1 {
			w := wd<<3 | bits.TrailingZeros64(m)>>3
			if valid>>uint(w)&1 != 0 && c.tags[base+w] == tag {
				return w
			}
		}
	}
	return -1
}

// setPartial records the low tag byte of (set, way) in the packed array.
func (c *Cache) setPartial(set, way int, b uint8) {
	i := set*c.pw + way>>3
	sh := uint(way&7) * 8
	c.partial[i] = c.partial[i]&^(0xff<<sh) | uint64(b)<<sh
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
// miss and evicting per the policy. sig tags the access's code region.
func (c *Cache) Access(lineNum uint64, write bool, sig uint16) Result {
	hit, set, way, evLine, ev, evDirty := c.probe(lineNum, write, sig, true)
	return Result{Hit: hit, Set: set, Way: way, Evicted: ev, EvictedLine: evLine, EvictedDirty: evDirty}
}

// probe is the access engine behind Access: identical semantics, but the
// outcome comes back in registers instead of a Result struct, which is what
// the Level.Probe hot path wants — the struct fill-and-copy is measurable at
// simulator access rates. Exported callers go through the Access wrapper.
//
// evictedLine is reconstructed from the victim's tag only when the victim
// is dirty or wantLine is set: a clean victim's line is needed by nobody on
// the hierarchy hot path, and skipping the tag load saves a likely cache
// miss per eviction. Otherwise it is 0.
func (c *Cache) probe(lineNum uint64, write bool, sig uint16, wantLine bool) (hit bool, set, way int, evictedLine uint64, evicted, evictedDirty bool) {
	if lineNum == c.lastLine {
		// MRU repeat: resident and already MRU — the lookup and the
		// recency touch are both no-ops.
		c.Stats.Accesses++
		c.Stats.Hits++
		if write {
			c.dirty[c.lastSet] |= 1 << uint(c.lastWay)
		}
		return true, c.lastSet, c.lastWay, 0, false, false
	}
	c.Stats.Accesses++
	c.seq++
	set = int(lineNum & c.mask)
	tag := lineNum >> c.shift
	base := set * c.ways

	if w := c.findWay(base, set, c.valid[set], tag); w >= 0 {
		c.Stats.Hits++
		if write {
			c.dirty[set] |= 1 << uint(w)
		}
		if c.lru != nil {
			c.lru.touch(set, w)
			c.lastLine, c.lastSet, c.lastWay = lineNum, set, w
		} else {
			c.pol.OnHit(set, w, Event{Tag: tag, Sig: sig, Seq: c.seq})
		}
		return true, set, w, 0, false, false
	}

	c.Stats.Misses++
	// Prefer an invalid way (the lowest, matching the old linear scan).
	if inv := ^c.valid[set] & c.wmask; inv != 0 {
		way = bits.TrailingZeros64(inv)
	} else {
		if c.lru != nil {
			way = c.lru.Victim(set)
		} else {
			way = c.pol.Victim(set)
			if way < 0 || way >= c.ways {
				panic(fmt.Sprintf("cache %s: policy %s returned invalid victim %d", c.name, c.pol.Name(), way))
			}
		}
		c.Stats.Evictions++
		evicted = true
		evictedDirty = c.dirty[set]>>uint(way)&1 != 0
		if evictedDirty {
			c.Stats.Writebacks++
		}
		if evictedDirty || wantLine {
			evictedLine = c.tags[base+way]<<c.shift | uint64(set)
		}
		if c.lru == nil {
			c.pol.OnEvict(set, way)
		}
	}
	c.tags[base+way] = tag
	c.setPartial(set, way, uint8(tag))
	c.valid[set] |= 1 << uint(way)
	if write {
		c.dirty[set] |= 1 << uint(way)
	} else {
		c.dirty[set] &^= 1 << uint(way)
	}
	if c.lru != nil {
		c.lru.touch(set, way)
		c.lastLine, c.lastSet, c.lastWay = lineNum, set, way
	} else {
		c.pol.OnInsert(set, way, Event{Tag: tag, Sig: sig, Seq: c.seq})
	}
	return false, set, way, evictedLine, evicted, evictedDirty
}

// Contains probes for the line without disturbing replacement state or
// statistics. It is used to validate data-location predictions.
func (c *Cache) Contains(lineNum uint64) bool {
	set, tag := c.index(lineNum)
	return c.findWay(set*c.ways, set, c.valid[set], tag) >= 0
}

// Invalidate drops the line if present, returning whether it was dirty.
func (c *Cache) Invalidate(lineNum uint64) (present, dirty bool) {
	set, tag := c.index(lineNum)
	w := c.findWay(set*c.ways, set, c.valid[set], tag)
	if w < 0 {
		return false, false
	}
	bit := uint64(1) << uint(w)
	d := c.dirty[set]&bit != 0
	c.valid[set] &^= bit
	c.dirty[set] &^= bit
	c.lastLine = ^uint64(0)
	return true, d
}

// Flush invalidates every line, returning the number of dirty lines dropped.
func (c *Cache) Flush() (dirty int) {
	c.lastLine = ^uint64(0)
	for s := 0; s < c.sets; s++ {
		dirty += bits.OnesCount64(c.valid[s] & c.dirty[s])
		c.valid[s] = 0
		c.dirty[s] = 0
	}
	return dirty
}

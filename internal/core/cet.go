package core

import "math/bits"

// CET is the CTR Evaluation Table (§4.1.1): a small LRU-managed buffer of
// recent CTR accesses, each recorded with the RL state and action taken.
// It answers the "was this CTR (or a spatial neighbour within ±window
// blocks) accessed recently?" question that grades locality predictions,
// and it reports evictions so stale predictions can be penalised
// (Algorithm 1 lines 19-23).
//
// Storage is a fixed slab of entries linked into an intrusive index-based
// LRU list (no per-entry allocation), with two indexes over it:
//
//   - byBlock maps a counter-block number to its slab index (at most one
//     entry per block — Insert refreshes in place);
//   - buckets maps block>>6 to a 64-bit occupancy bitmap, bit i set iff an
//     entry for block (bucket<<6)|i is resident.
//
// The ±window neighbourhood test of Algorithm 1 line 9 then reduces to
// masking the occupancy bitmaps of the (at most three, for window < 64)
// buckets the range overlaps — O(1) bit arithmetic per lookup, no
// candidate iteration, and order-independent (hence deterministic).
type CET struct {
	capacity int
	window   uint64

	// entries is the slab; it holds capacity+1 slots because Insert links
	// the new entry before evicting the LRU victim.
	entries []cetEntry
	free    int32 // free-list head, chained through cetEntry.next
	byBlock cetIndex
	buckets cetIndex

	// intrusive LRU list: mru is the most recently inserted entry
	// ("CET.head" in Algorithm 1), lru the eviction candidate. -1 = empty.
	mru, lru int32
	size     int
}

type cetEntry struct {
	block  uint64
	state  int32
	action int32

	prev, next int32 // prev = more recent; -1 terminates
}

// CETRecord is the (state, action) pair stored per entry, surfaced on
// eviction and by Head.
type CETRecord struct {
	Block  uint64
	State  int
	Action int
}

// NewCET builds a table with the given capacity and neighbourhood window.
func NewCET(capacity int, window uint64) *CET {
	if capacity < 1 {
		capacity = 1
	}
	c := &CET{
		capacity: capacity,
		window:   window,
		entries:  make([]cetEntry, capacity+1),
	}
	c.byBlock.init(capacity)
	c.buckets.init(capacity)
	c.reset()
	return c
}

// cetIndex is a linear-probing open-addressed uint64→uint64 table sized for
// a fixed entry budget, replacing the runtime maps on the per-CTR-access
// path: the CET churns one insert and one delete per steady-state miss, and
// at a ≤¼ load factor a probe is one or two array reads with no hashing
// dispatch. Deletion backward-shifts the cluster (no tombstones), so probe
// lengths stay short forever. Keys are counter-block derived and therefore
// far below the reserved cetEmpty sentinel.
type cetIndex struct {
	keys []uint64
	vals []uint64
	mask uint64
}

const cetEmpty = ^uint64(0)

func (t *cetIndex) init(capacity int) {
	size := 4
	for size < 4*capacity {
		size <<= 1
	}
	t.keys = make([]uint64, size)
	t.vals = make([]uint64, size)
	t.mask = uint64(size - 1)
	t.clear()
}

func (t *cetIndex) clear() {
	for i := range t.keys {
		t.keys[i] = cetEmpty
	}
}

func (t *cetIndex) home(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 32 & t.mask
}

// get returns the value for key (ok=false when absent).
func (t *cetIndex) get(key uint64) (uint64, bool) {
	for i := t.home(key); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case key:
			return t.vals[i], true
		case cetEmpty:
			return 0, false
		}
	}
}

// put inserts or replaces key's value.
func (t *cetIndex) put(key, val uint64) {
	for i := t.home(key); ; i = (i + 1) & t.mask {
		if t.keys[i] == key || t.keys[i] == cetEmpty {
			t.keys[i], t.vals[i] = key, val
			return
		}
	}
}

// orBit ORs bit into key's value, inserting the key if absent — one probe
// instead of a get followed by a put.
func (t *cetIndex) orBit(key, bit uint64) {
	for i := t.home(key); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case key:
			t.vals[i] |= bit
			return
		case cetEmpty:
			t.keys[i], t.vals[i] = key, bit
			return
		}
	}
}

// del removes key if present, backward-shifting the probe cluster so
// lookups never need tombstones.
func (t *cetIndex) del(key uint64) {
	i := t.home(key)
	for {
		switch t.keys[i] {
		case cetEmpty:
			return
		case key:
			goto found
		}
		i = (i + 1) & t.mask
	}
found:
	for {
		t.keys[i] = cetEmpty
		j := i
		for {
			j = (j + 1) & t.mask
			k := t.keys[j]
			if k == cetEmpty {
				return
			}
			// Shift k into the hole unless it already sits in its probe
			// range [home(k), j] without crossing the hole.
			h := t.home(k)
			if (j-h)&t.mask >= (j-i)&t.mask {
				t.keys[i], t.vals[i] = k, t.vals[j]
				i = j
				break
			}
		}
	}
}

// len counts resident keys (test/validation use only — linear).
func (t *cetIndex) len() int {
	n := 0
	for _, k := range t.keys {
		if k != cetEmpty {
			n++
		}
	}
	return n
}

// reset rebuilds the free list and empties the LRU chain.
func (c *CET) reset() {
	for i := range c.entries {
		c.entries[i].next = int32(i) + 1
	}
	c.entries[len(c.entries)-1].next = -1
	c.free = 0
	c.mru, c.lru = -1, -1
	c.size = 0
}

// Len reports the current number of entries.
func (c *CET) Len() int { return c.size }

func (c *CET) bucketOf(block uint64) uint64 { return block >> 6 }

// HitNearby reports whether any resident entry lies within ±window counter
// blocks of block (Algorithm 1 lines 9-10).
func (c *CET) HitNearby(block uint64) bool {
	lo := block - c.window
	if lo > block { // underflow: clamp to 0
		lo = 0
	}
	hi := block + c.window
	if hi < block { // overflow: clamp to max
		hi = ^uint64(0)
	}
	for b := lo >> 6; ; b++ {
		if m, _ := c.buckets.get(b); m != 0 {
			// Intersect [lo,hi] with this bucket's 64-block span and
			// build the corresponding bit range.
			lob, hib := uint64(0), uint64(63)
			if b == lo>>6 {
				lob = lo & 63
			}
			if b == hi>>6 {
				hib = hi & 63
			}
			rangeMask := (^uint64(0) << lob) & (^uint64(0) >> (63 - hib))
			if m&rangeMask != 0 {
				return true
			}
		}
		if b == hi>>6 {
			return false
		}
	}
}

// Head returns the most recently inserted record — Algorithm 1's
// (CET.head.state, CET.head.action) bootstrap — and ok=false when empty.
func (c *CET) Head() (CETRecord, bool) {
	if c.mru < 0 {
		return CETRecord{}, false
	}
	e := &c.entries[c.mru]
	return CETRecord{Block: e.block, State: int(e.state), Action: int(e.action)}, true
}

// Insert records (block, state, action) as the newest entry. If the block
// is already resident its record is refreshed and promoted. When the table
// overflows, the least recently inserted entry is evicted and returned so
// the caller can apply the eviction reward.
func (c *CET) Insert(block uint64, state, action int) (evicted CETRecord, wasEvicted bool) {
	if v, ok := c.byBlock.get(block); ok {
		i := int32(v)
		e := &c.entries[i]
		e.state, e.action = int32(state), int32(action)
		c.unlink(i)
		c.pushFront(i)
		return CETRecord{}, false
	}
	i := c.free
	c.free = c.entries[i].next
	e := &c.entries[i]
	e.block, e.state, e.action = block, int32(state), int32(action)
	c.byBlock.put(block, uint64(i))
	c.buckets.orBit(block>>6, 1<<(block&63))
	c.pushFront(i)
	c.size++

	if c.size <= c.capacity {
		return CETRecord{}, false
	}
	vi := c.lru
	v := c.entries[vi]
	c.remove(vi)
	return CETRecord{Block: v.block, State: int(v.state), Action: int(v.action)}, true
}

func (c *CET) pushFront(i int32) {
	e := &c.entries[i]
	e.prev = -1
	e.next = c.mru
	if c.mru >= 0 {
		c.entries[c.mru].prev = i
	}
	c.mru = i
	if c.lru < 0 {
		c.lru = i
	}
}

func (c *CET) unlink(i int32) {
	e := &c.entries[i]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.mru = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.lru = e.prev
	}
	e.prev, e.next = -1, -1
}

func (c *CET) remove(i int32) {
	c.unlink(i)
	e := &c.entries[i]
	c.byBlock.del(e.block)
	bk := e.block >> 6
	m, _ := c.buckets.get(bk)
	if m &^= 1 << (e.block & 63); m == 0 {
		c.buckets.del(bk)
	} else {
		c.buckets.put(bk, m)
	}
	e.next = c.free
	c.free = i
	c.size--
}

// occupancyCheck (tests only) verifies the bitmap index against byBlock.
func (c *CET) occupancyCheck() bool {
	n := 0
	for s, k := range c.buckets.keys {
		if k != cetEmpty {
			n += bits.OnesCount64(c.buckets.vals[s])
		}
	}
	if n != c.byBlock.len() {
		return false
	}
	for s, k := range c.byBlock.keys {
		if k == cetEmpty {
			continue
		}
		if c.entries[int32(c.byBlock.vals[s])].block != k {
			return false
		}
		if m, _ := c.buckets.get(k >> 6); m&(1<<(k&63)) == 0 {
			return false
		}
	}
	return true
}

// StorageBits reports the hardware cost: 65 bits per entry (64-bit address
// + 1 prediction bit), per Table 2.
func (c *CET) StorageBits() int { return c.capacity * 65 }

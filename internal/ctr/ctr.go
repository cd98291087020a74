// Package ctr implements the encryption-counter organisations used by
// AES-CTR secure memory: the monolithic 64-bit counter, the split counter of
// Yan et al. (major + per-line minor counters), and MorphCtr (Saileshwar et
// al., MICRO'18) with its 1:128 counter-to-data ratio, 3-bit minors and
// zero-counter compression. The Store tracks counter values functionally and
// reports overflow (re-encryption) events.
package ctr

import "fmt"

// Scheme describes a counter organisation: how many 64-byte data lines one
// 64-byte counter block covers and how many writes a minor counter absorbs
// before the block must re-encrypt.
type Scheme struct {
	SchemeName string
	// LinesPerBlock is the counter-to-data mapping ratio (8, 64, 128).
	LinesPerBlock int
	// MinorCapacity is the number of writes to one line before the block
	// overflows and triggers re-encryption.
	MinorCapacity uint32
	// MajorBits and MinorBits document the block layout.
	MajorBits, MinorBits int
}

// Name returns the scheme's label.
func (s Scheme) Name() string { return s.SchemeName }

// Mono is the baseline: one 64-bit counter per line, eight counters per
// 64-byte block, effectively never overflowing.
func Mono() Scheme {
	return Scheme{SchemeName: "Mono", LinesPerBlock: 8, MinorCapacity: 1 << 30, MajorBits: 64, MinorBits: 0}
}

// Split is Yan et al.'s split counter: a 64-bit major plus 64 7-bit minors
// in one block (1:64 ratio, 127 writes per minor).
func Split() Scheme {
	return Scheme{SchemeName: "Split", LinesPerBlock: 64, MinorCapacity: 127, MajorBits: 64, MinorBits: 7}
}

// Morph is MorphCtr: 57-bit major, 7-bit format field, 128 3-bit minors
// (1:128 ratio). Thanks to morphable formats (including zero-counter
// compression) a counter absorbs 67 writes before re-encryption — the figure
// the paper uses for overflow handling (§5).
func Morph() Scheme {
	return Scheme{SchemeName: "MorphCtr", LinesPerBlock: 128, MinorCapacity: 67, MajorBits: 57, MinorBits: 3}
}

// Stats counts functional counter events.
type Stats struct {
	Increments    uint64
	Overflows     uint64 // block re-encryptions
	FormatToZCC   uint64 // MorphCtr format transitions (dense → sparse)
	FormatToDense uint64
}

// Store holds the counters for a data region. It is sparse: blocks
// materialise on first write, matching a zero-initialised memory.
type Store struct {
	scheme Scheme
	morph  bool // scheme is MorphCtr: format morphing applies
	blocks blockMap

	Stats Stats
}

// blockMap is a growable linear-probing open-addressed index from counter
// block number to its materialised state. Every counter access walks it (one
// lookup per Value/Increment), so it replaces the runtime map on that path:
// a hit is one or two array probes with no hashing dispatch, and blocks are
// never deleted, so there is no tombstone bookkeeping. Block numbers are
// line>>log2(LinesPerBlock) and stay far below the reserved empty sentinel.
type blockMap struct {
	keys []uint64
	vals []*block
	mask uint64
	n    int
}

const blockEmpty = ^uint64(0)

func (m *blockMap) init(size int) {
	m.keys = make([]uint64, size)
	m.vals = make([]*block, size)
	m.mask = uint64(size - 1)
	m.n = 0
	for i := range m.keys {
		m.keys[i] = blockEmpty
	}
}

func (m *blockMap) home(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 32 & m.mask
}

// at returns the block for key, or nil when absent.
func (m *blockMap) at(key uint64) *block {
	for i := m.home(key); ; i = (i + 1) & m.mask {
		switch m.keys[i] {
		case key:
			return m.vals[i]
		case blockEmpty:
			return nil
		}
	}
}

// put inserts key→b (key must be absent), growing at ¾ load.
func (m *blockMap) put(key uint64, b *block) {
	if 4*(m.n+1) > 3*len(m.keys) {
		old := *m
		m.init(2 * len(old.keys))
		for i, k := range old.keys {
			if k != blockEmpty {
				m.set(k, old.vals[i])
			}
		}
		m.n = old.n
	}
	m.set(key, b)
	m.n++
}

func (m *blockMap) set(key uint64, b *block) {
	i := m.home(key)
	for m.keys[i] != blockEmpty {
		i = (i + 1) & m.mask
	}
	m.keys[i], m.vals[i] = key, b
}

type block struct {
	major  uint64
	minors []uint32
	zero   int  // count of zero minors, maintained incrementally
	zcc    bool // MorphCtr: currently in zero-counter-compressed format
}

// NewStore builds a counter store for the given scheme.
func NewStore(s Scheme) *Store {
	if s.LinesPerBlock <= 0 || s.MinorCapacity == 0 {
		panic(fmt.Sprintf("ctr: invalid scheme %+v", s))
	}
	st := &Store{scheme: s, morph: s.SchemeName == "MorphCtr"}
	st.blocks.init(256)
	return st
}

// Scheme returns the store's counter organisation.
func (st *Store) Scheme() Scheme { return st.scheme }

// BlockOf maps a data cache-line number to its counter-block index.
func (st *Store) BlockOf(dataLine uint64) uint64 {
	return dataLine / uint64(st.scheme.LinesPerBlock)
}

// slotOf returns the minor-counter slot within the block.
func (st *Store) slotOf(dataLine uint64) int {
	return int(dataLine % uint64(st.scheme.LinesPerBlock))
}

func (st *Store) get(blockIdx uint64) *block {
	b := st.blocks.at(blockIdx)
	if b == nil {
		b = &block{minors: make([]uint32, st.scheme.LinesPerBlock), zero: st.scheme.LinesPerBlock, zcc: true}
		st.blocks.put(blockIdx, b)
	}
	return b
}

// Value returns the (major, minor) counter pair for a line — the value that
// feeds AES_Enc(PA ‖ CTR_M ‖ CTR_m).
func (st *Store) Value(dataLine uint64) (major uint64, minor uint32) {
	b := st.blocks.at(st.BlockOf(dataLine))
	if b == nil {
		return 0, 0
	}
	return b.major, b.minors[st.slotOf(dataLine)]
}

// Increment advances the line's counter for a memory write. It returns
// overflowed=true when the minor counter exceeded its capacity, forcing the
// whole block to re-encrypt (major++, minors reset); reencryptLines is the
// number of data lines whose ciphertext must be regenerated (the paper
// models this as background 64B DRAM requests).
func (st *Store) Increment(dataLine uint64) (overflowed bool, reencryptLines int) {
	st.Stats.Increments++
	bi := st.BlockOf(dataLine)
	b := st.get(bi)
	slot := st.slotOf(dataLine)
	if b.minors[slot] == 0 {
		b.zero--
	}
	b.minors[slot]++
	st.updateFormat(b)
	if b.minors[slot] > st.scheme.MinorCapacity {
		st.Stats.Overflows++
		b.major++
		live := 0
		for i := range b.minors {
			if b.minors[i] != 0 {
				live++
			}
			b.minors[i] = 0
		}
		b.minors[slot] = 1 // the write that caused the overflow
		b.zero = len(b.minors) - 1
		if !b.zcc && st.morph {
			st.Stats.FormatToZCC++
		}
		b.zcc = true
		return true, live
	}
	return false, 0
}

// updateFormat models MorphCtr's morphing between zero-counter-compressed
// and uniform formats: a block stays ZCC while at least half its minors are
// zero. Transitions are counted for the ablation study. The zero-minor
// count is maintained incrementally by the callers, so this is O(1) per
// write instead of a scan over all minors.
func (st *Store) updateFormat(b *block) {
	if !st.morph {
		return
	}
	sparse := b.zero*2 >= len(b.minors)
	if sparse != b.zcc {
		if sparse {
			st.Stats.FormatToZCC++
		} else {
			st.Stats.FormatToDense++
		}
		b.zcc = sparse
	}
}

// WillOverflow reports whether the next Increment of this line would trigger
// block re-encryption. The functional enclave uses it to decrypt live lines
// under the old counters before the reset.
func (st *Store) WillOverflow(dataLine uint64) bool {
	b := st.blocks.at(st.BlockOf(dataLine))
	if b == nil {
		return false
	}
	return b.minors[st.slotOf(dataLine)]+1 > st.scheme.MinorCapacity
}

// LiveLines returns the data-line numbers within a counter block whose minor
// counters are non-zero (i.e. lines holding ciphertext under this block's
// counters).
func (st *Store) LiveLines(blockIdx uint64) []uint64 {
	b := st.blocks.at(blockIdx)
	if b == nil {
		return nil
	}
	base := blockIdx * uint64(st.scheme.LinesPerBlock)
	var out []uint64
	for i, m := range b.minors {
		if m != 0 {
			out = append(out, base+uint64(i))
		}
	}
	return out
}

// BlockDigestInput serialises a counter block's contents (major + minors)
// for hashing into the integrity tree.
func (st *Store) BlockDigestInput(blockIdx uint64) []byte {
	out := make([]byte, 8+4*st.scheme.LinesPerBlock)
	b := st.blocks.at(blockIdx)
	if b == nil {
		return out
	}
	putU64(out, b.major)
	for i, m := range b.minors {
		putU32(out[8+4*i:], m)
	}
	return out
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func putU32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// BlockExists reports whether the block has materialised (any write landed
// in it). Unmaterialised blocks are all-zero and absent from the MT.
func (st *Store) BlockExists(blockIdx uint64) bool {
	return st.blocks.at(blockIdx) != nil
}

// SnapshotBlock captures a counter block's values so tests can model a
// physical attacker rolling counters in DRAM back to a stale version.
func (st *Store) SnapshotBlock(blockIdx uint64) (major uint64, minors []uint32) {
	b := st.blocks.at(blockIdx)
	if b == nil {
		return 0, make([]uint32, st.scheme.LinesPerBlock)
	}
	return b.major, append([]uint32(nil), b.minors...)
}

// RestoreBlock overwrites a counter block with previously captured values —
// the counter half of a replay attack. Legitimate controllers never call
// this; it exists for the enclave's replay attack and its tests.
func (st *Store) RestoreBlock(blockIdx uint64, major uint64, minors []uint32) {
	b := st.get(blockIdx)
	b.major = major
	copy(b.minors, minors)
	b.zero = 0
	for _, m := range b.minors {
		if m == 0 {
			b.zero++
		}
	}
}

// BlocksTouched reports how many counter blocks have materialised.
func (st *Store) BlocksTouched() int { return st.blocks.n }

// CtrBlocksFor reports how many counter blocks cover a memory of the given
// size (bytes), e.g. 32GB/64B/128 ≈ 4.2M blocks for MorphCtr.
func (s Scheme) CtrBlocksFor(memBytes uint64) uint64 {
	lines := (memBytes + 63) / 64
	per := uint64(s.LinesPerBlock)
	return (lines + per - 1) / per
}

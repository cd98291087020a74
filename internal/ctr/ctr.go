// Package ctr implements the encryption-counter organisations used by
// AES-CTR secure memory: the split counter of Yan et al. (major + per-line
// minor counters) and MorphCtr (Saileshwar et al., MICRO'18) with its 1:128
// counter-to-data ratio, 3-bit minors and zero-counter compression. The
// Store tracks counter values functionally and reports overflow
// (re-encryption) events.
package ctr

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Scheme describes a counter organisation: how many 64-byte data lines one
// 64-byte counter block covers and how many writes a minor counter absorbs
// before the block must re-encrypt.
type Scheme struct {
	SchemeName string
	// LinesPerBlock is the counter-to-data mapping ratio (64, 128).
	LinesPerBlock int
	// MinorCapacity is the number of writes to one line before the block
	// overflows and triggers re-encryption. The Store keeps each minor in
	// a byte, so it takes at most maxMinorCapacity.
	MinorCapacity uint32
	// MajorBits and MinorBits document the block layout.
	MajorBits, MinorBits int
}

// Name returns the scheme's label.
func (s Scheme) Name() string { return s.SchemeName }

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
//
// Each materialised block is one fixed-size record: a header plus one byte
// per minor, which is all a minor ever holds (at most MinorCapacity+1, for
// the instant before an overflow resets it). Records live in pages that
// are appended and never copied, so the store holds no pointer per block
// and a growing store never holds two copies of its records.
type Store struct {
	scheme Scheme
	morph  bool // scheme is MorphCtr: format morphing applies
	per    int  // LinesPerBlock
	blocks blockMap
	pages  []*page

	Stats Stats
}

// maxMinorCapacity is the largest MinorCapacity a byte minor can hold: an
// overflowing write takes the minor to MinorCapacity+1 before the reset.
const maxMinorCapacity = 254

// A page holds pageRecords block records: their headers, and their minors
// laid out record after record, LinesPerBlock bytes each.
const (
	pageShift   = 10
	pageRecords = 1 << pageShift
	pageMask    = pageRecords - 1
)

type page struct {
	hdr    [pageRecords]header
	minors []byte
}

// header is the per-block state beside its minors.
type header struct {
	major uint64
	zero  int32 // count of zero minors, maintained incrementally
	zcc   bool  // MorphCtr: currently in zero-counter-compressed format
}

// blockMap is a growable linear-probing open-addressed index from counter
// block number to its record. Every counter access walks it (one lookup
// per Value/Increment), so it replaces the runtime map on that path: a hit
// is one or two array probes with no hashing dispatch, and blocks are
// never deleted, so there is no tombstone bookkeeping. Block numbers are
// line>>log2(LinesPerBlock) and stay far below the reserved empty sentinel.
type blockMap struct {
	keys []uint64
	vals []int32
	mask uint64
	n    int
}

const blockEmpty = ^uint64(0)

func (m *blockMap) init(size int) {
	m.keys = make([]uint64, size)
	m.vals = make([]int32, size)
	m.mask = uint64(size - 1)
	m.n = 0
	for i := range m.keys {
		m.keys[i] = blockEmpty
	}
}

func (m *blockMap) home(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 32 & m.mask
}

// at returns the record index for key, or -1 when absent.
func (m *blockMap) at(key uint64) int32 {
	for i := m.home(key); ; i = (i + 1) & m.mask {
		switch m.keys[i] {
		case key:
			return m.vals[i]
		case blockEmpty:
			return -1
		}
	}
}

// put inserts key→rec (key must be absent), growing at ¾ load.
func (m *blockMap) put(key uint64, rec int32) {
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
	m.set(key, rec)
	m.n++
}

func (m *blockMap) set(key uint64, rec int32) {
	i := m.home(key)
	for m.keys[i] != blockEmpty {
		i = (i + 1) & m.mask
	}
	m.keys[i], m.vals[i] = key, rec
}

// NewStore builds a counter store for the given scheme. It panics on a
// scheme whose minors do not fit in a byte (MinorCapacity above 254).
func NewStore(s Scheme) *Store {
	if s.LinesPerBlock <= 0 || s.MinorCapacity == 0 || s.MinorCapacity > maxMinorCapacity {
		panic(fmt.Sprintf("ctr: invalid scheme %+v", s))
	}
	st := &Store{scheme: s, morph: s.SchemeName == "MorphCtr", per: s.LinesPerBlock}
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

// rec returns record i's header and minors.
func (st *Store) rec(i int32) (*header, []byte) {
	p := st.pages[i>>pageShift]
	o := int(i&pageMask) * st.per
	return &p.hdr[i&pageMask], p.minors[o : o+st.per : o+st.per]
}

// lookup returns the block's record, or nil minors when it has not
// materialised.
func (st *Store) lookup(blockIdx uint64) (*header, []byte) {
	i := st.blocks.at(blockIdx)
	if i < 0 {
		return nil, nil
	}
	return st.rec(i)
}

// get returns the block's record, materialising an all-zero one.
func (st *Store) get(blockIdx uint64) (*header, []byte) {
	if i := st.blocks.at(blockIdx); i >= 0 {
		return st.rec(i)
	}
	i := int32(st.blocks.n) // records are numbered in materialisation order
	if i&pageMask == 0 {
		st.pages = append(st.pages, &page{minors: make([]byte, pageRecords*st.per)})
	}
	st.blocks.put(blockIdx, i)
	h, m := st.rec(i)
	h.zero, h.zcc = int32(st.per), true
	return h, m
}

// Value returns the (major, minor) counter pair for a line — the value that
// feeds AES_Enc(PA ‖ CTR_M ‖ CTR_m).
func (st *Store) Value(dataLine uint64) (major uint64, minor uint32) {
	h, m := st.lookup(st.BlockOf(dataLine))
	if m == nil {
		return 0, 0
	}
	return h.major, uint32(m[st.slotOf(dataLine)])
}

// Increment advances the line's counter for a memory write. It returns
// overflowed=true when the minor counter exceeded its capacity, forcing the
// whole block to re-encrypt (major++, minors reset); reencryptLines is the
// number of data lines whose ciphertext must be regenerated (the paper
// models this as background 64B DRAM requests).
func (st *Store) Increment(dataLine uint64) (overflowed bool, reencryptLines int) {
	st.Stats.Increments++
	h, m := st.get(st.BlockOf(dataLine))
	slot := st.slotOf(dataLine)
	if m[slot] == 0 {
		h.zero--
	}
	m[slot]++
	st.updateFormat(h)
	if uint32(m[slot]) > st.scheme.MinorCapacity {
		st.Stats.Overflows++
		h.major++
		live := 0
		for i := range m {
			if m[i] != 0 {
				live++
			}
			m[i] = 0
		}
		m[slot] = 1 // the write that caused the overflow
		h.zero = int32(len(m) - 1)
		if !h.zcc && st.morph {
			st.Stats.FormatToZCC++
		}
		h.zcc = true
		return true, live
	}
	return false, 0
}

// updateFormat models MorphCtr's morphing between zero-counter-compressed
// and uniform formats: a block stays ZCC while at least half its minors are
// zero. Transitions are counted for the ablation study. The zero-minor
// count is maintained incrementally by the callers, so this is O(1) per
// write instead of a scan over all minors.
func (st *Store) updateFormat(h *header) {
	if !st.morph {
		return
	}
	sparse := int(h.zero)*2 >= st.per
	if sparse != h.zcc {
		if sparse {
			st.Stats.FormatToZCC++
		} else {
			st.Stats.FormatToDense++
		}
		h.zcc = sparse
	}
}

// WillOverflow reports whether the next Increment of this line would trigger
// block re-encryption. The functional enclave uses it to decrypt live lines
// under the old counters before the reset.
func (st *Store) WillOverflow(dataLine uint64) bool {
	_, m := st.lookup(st.BlockOf(dataLine))
	if m == nil {
		return false
	}
	return uint32(m[st.slotOf(dataLine)])+1 > st.scheme.MinorCapacity
}

// LiveLines returns the data-line numbers within a counter block whose minor
// counters are non-zero (i.e. lines holding ciphertext under this block's
// counters).
func (st *Store) LiveLines(blockIdx uint64) []uint64 {
	_, m := st.lookup(blockIdx)
	base := blockIdx * uint64(st.per)
	var out []uint64
	for i, v := range m {
		if v != 0 {
			out = append(out, base+uint64(i))
		}
	}
	return out
}

// BlockDigestInput serialises a counter block's contents (major + minors,
// four bytes each) for hashing into the integrity tree.
func (st *Store) BlockDigestInput(blockIdx uint64) []byte {
	out := make([]byte, 8+4*st.per)
	h, m := st.lookup(blockIdx)
	if m == nil {
		return out
	}
	binary.LittleEndian.PutUint64(out, h.major)
	for i, v := range m {
		binary.LittleEndian.PutUint32(out[8+4*i:], uint32(v))
	}
	return out
}

// BlockExists reports whether the block has materialised (any write landed
// in it). Unmaterialised blocks are all-zero and absent from the MT.
func (st *Store) BlockExists(blockIdx uint64) bool {
	return st.blocks.at(blockIdx) >= 0
}

// SnapshotBlock captures a counter block's values so tests can model a
// physical attacker rolling counters in DRAM back to a stale version.
func (st *Store) SnapshotBlock(blockIdx uint64) (major uint64, minors []uint32) {
	minors = make([]uint32, st.per)
	h, m := st.lookup(blockIdx)
	if m == nil {
		return 0, minors
	}
	for i, v := range m {
		minors[i] = uint32(v)
	}
	return h.major, minors
}

// RestoreBlock overwrites a counter block with previously captured values —
// the counter half of a replay attack. Legitimate controllers never call
// this; it exists for the enclave's replay attack and its tests. It panics
// on a minor too large for the store to hold rather than truncate it.
func (st *Store) RestoreBlock(blockIdx uint64, major uint64, minors []uint32) {
	minors = minors[:min(len(minors), st.per)]
	for _, v := range minors {
		if v > math.MaxUint8 {
			panic(fmt.Sprintf("ctr: minor %d does not fit in a byte", v))
		}
	}
	h, m := st.get(blockIdx)
	h.major = major
	for i, v := range minors {
		m[i] = byte(v)
	}
	h.zero = 0
	for _, v := range m {
		if v == 0 {
			h.zero++
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

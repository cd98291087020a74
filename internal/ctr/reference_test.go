package ctr

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// refStore is a naive model of a Store: plain maps from block to its
// minors, major and format, a format that is recomputed by rescanning all
// minors after every write instead of tracked by an incremental zero count,
// and uint32 minors where the Store packs bytes.
type refStore struct {
	s      Scheme
	morph  bool
	minors map[uint64][]uint32
	major  map[uint64]uint64
	dense  map[uint64]bool // MorphCtr block has left the ZCC format
	stats  Stats
}

func newRefStore(s Scheme) *refStore {
	return &refStore{s: s, morph: s == Morph(),
		minors: map[uint64][]uint32{}, major: map[uint64]uint64{}, dense: map[uint64]bool{}}
}

// sparse reports whether at least half the block's minors are zero, the
// condition for MorphCtr's zero-counter-compressed format.
func sparse(m []uint32) bool {
	zero := 0
	for _, v := range m {
		if v == 0 {
			zero++
		}
	}
	return zero*2 >= len(m)
}

// block returns b's minors, materialising them.
func (r *refStore) block(b uint64) []uint32 {
	m, ok := r.minors[b]
	if !ok {
		m = make([]uint32, r.s.LinesPerBlock)
		r.minors[b] = m
	}
	return m
}

func (r *refStore) increment(line uint64) (bool, int) {
	r.stats.Increments++
	per := uint64(r.s.LinesPerBlock)
	b, slot := line/per, line%per
	m := r.block(b)
	m[slot]++
	if sp := sparse(m); r.morph && sp == r.dense[b] {
		if sp {
			r.stats.FormatToZCC++
		} else {
			r.stats.FormatToDense++
		}
		r.dense[b] = !sp
	}
	if m[slot] <= r.s.MinorCapacity {
		return false, 0
	}
	r.stats.Overflows++
	r.major[b]++
	live := 0
	for i := range m {
		if m[i] != 0 {
			live++
		}
		m[i] = 0
	}
	m[slot] = 1
	if r.dense[b] {
		r.stats.FormatToZCC++
		r.dense[b] = false
	}
	return true, live
}

func (r *refStore) value(line uint64) (uint64, uint32) {
	per := uint64(r.s.LinesPerBlock)
	m, ok := r.minors[line/per]
	if !ok {
		return 0, 0
	}
	return r.major[line/per], m[line%per]
}

func (r *refStore) liveLines(b uint64) []uint64 {
	var out []uint64
	for i, v := range r.minors[b] {
		if v != 0 {
			out = append(out, b*uint64(r.s.LinesPerBlock)+uint64(i))
		}
	}
	return out
}

// digest is the block's major and minors, eight and four little-endian
// bytes each.
func (r *refStore) digest(b uint64) []byte {
	out := binary.LittleEndian.AppendUint64(nil, r.major[b])
	m, ok := r.minors[b]
	if !ok {
		m = make([]uint32, r.s.LinesPerBlock)
	}
	for _, v := range m {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	return out
}

func (r *refStore) snapshot(b uint64) (uint64, []uint32) {
	out := make([]uint32, r.s.LinesPerBlock)
	copy(out, r.minors[b])
	return r.major[b], out
}

// restore overwrites b's counters and leaves its format as it was, as
// Store.RestoreBlock does: the next write settles the format.
func (r *refStore) restore(b, major uint64, minors []uint32) {
	copy(r.block(b), minors)
	r.major[b] = major
}

// TestStoreMatchesReference drives a MorphCtr Store with random writes and
// compares it with refStore after each one. Half the writes land on a few
// hot blocks, so minors fill past half a block (dense format) and overflow;
// the rest scatter over thousands of sparse block numbers, so the
// open-addressed block map grows several times.
func TestStoreMatchesReference(t *testing.T) {
	st := NewStore(Morph())
	ref := newRefStore(Morph())
	rng := rand.New(rand.NewSource(17))
	const per = 128
	line := func() uint64 {
		if rng.Intn(2) == 0 {
			return uint64(rng.Intn(8))*per + uint64(rng.Intn(96))
		}
		return uint64(rng.Intn(6000))*1_000_003*per + uint64(rng.Intn(per))
	}
	check := func(i int, l uint64) {
		t.Helper()
		gMaj, gMin := st.Value(l)
		wMaj, wMin := ref.value(l)
		if gMaj != wMaj || gMin != wMin {
			t.Fatalf("write %d: Value(%d) = (%d,%d), ref (%d,%d)", i, l, gMaj, gMin, wMaj, wMin)
		}
		if got, want := st.WillOverflow(l), wMin+1 > Morph().MinorCapacity; got != want {
			t.Fatalf("write %d: WillOverflow(%d) = %v, ref %v", i, l, got, want)
		}
	}
	for i := 0; i < 300_000; i++ {
		l := line()
		gOv, gLive := st.Increment(l)
		wOv, wLive := ref.increment(l)
		if gOv != wOv || gLive != wLive {
			t.Fatalf("write %d: Increment(%d) = (%v,%d), ref (%v,%d)", i, l, gOv, gLive, wOv, wLive)
		}
		if st.Stats != ref.stats {
			t.Fatalf("write %d: stats %+v, ref %+v", i, st.Stats, ref.stats)
		}
		check(i, l)
		check(i, line()) // often a block never written
		if i%10_000 == 0 {
			if st.BlocksTouched() != len(ref.minors) {
				t.Fatalf("write %d: %d blocks touched, ref %d", i, st.BlocksTouched(), len(ref.minors))
			}
			for b := range ref.minors {
				if got, want := st.LiveLines(b), ref.liveLines(b); !reflect.DeepEqual(got, want) {
					t.Fatalf("write %d: LiveLines(%d) = %v, ref %v", i, b, got, want)
				}
			}
		}
	}
	if st.BlocksTouched() < 4000 || ref.stats.Overflows == 0 || ref.stats.FormatToDense == 0 {
		t.Fatalf("stream too tame: %d blocks, stats %+v", st.BlocksTouched(), ref.stats)
	}
}

// FuzzStoreMatchesReference holds a Morph or Split Store to refStore under
// a fuzzed mix of writes, bursts of writes to one line, reads and
// snapshot/restore round trips. Each input first materialises more blocks
// than one record page holds, spread over sparse block numbers, so records
// span pages and the block index grows; the ops then write a few of those
// blocks hot, so they fill up and overflow, and touch the rest.
func FuzzStoreMatchesReference(f *testing.F) {
	f.Add(false, uint16(0), []byte{0, 0, 5, 1, 2, 200, 2, 0, 5, 3, 1, 4, 2, 4, 7})
	f.Add(true, uint16(300), []byte{1, 6, 9, 1, 6, 130, 3, 6, 2, 2, 2, 9, 0, 7, 7})
	f.Add(false, uint16(77), []byte{1, 0, 90, 1, 0, 200, 1, 2, 70, 3, 0, 4, 2, 4, 0})
	f.Fuzz(func(t *testing.T, split bool, spread uint16, ops []byte) {
		s := Morph()
		if split {
			s = Split()
		}
		st, ref := NewStore(s), newRefStore(s)
		per := uint64(s.LinesPerBlock)
		warm := pageRecords + 1 + int(spread)%pageRecords
		// line picks one of the first four warmed blocks, which take hot
		// writes (even a), or any warmed block (odd a). The hot ones hold
		// the first records of a page, so a record that shares state with
		// another in its page shows as a wrong value there.
		line := func(a, b byte) uint64 {
			i := uint64(a>>1) % 4
			if a&1 == 1 {
				i = uint64(a>>1) * uint64(warm) / 128
			}
			return (1000+i*1_000_003)*per + uint64(b)%per
		}
		write := func(l uint64) {
			t.Helper()
			gOv, gLive := st.Increment(l)
			wOv, wLive := ref.increment(l)
			if gOv != wOv || gLive != wLive {
				t.Fatalf("Increment(%d) = (%v,%d), ref (%v,%d)", l, gOv, gLive, wOv, wLive)
			}
			if st.Stats != ref.stats {
				t.Fatalf("after Increment(%d): stats %+v, ref %+v", l, st.Stats, ref.stats)
			}
		}
		check := func(l uint64) {
			t.Helper()
			b := l / per
			gMaj, gMin := st.Value(l)
			wMaj, wMin := ref.value(l)
			if gMaj != wMaj || gMin != wMin {
				t.Fatalf("Value(%d) = (%d,%d), ref (%d,%d)", l, gMaj, gMin, wMaj, wMin)
			}
			if got, want := st.WillOverflow(l), ref.minors[b] != nil && wMin+1 > s.MinorCapacity; got != want {
				t.Fatalf("WillOverflow(%d) = %v, ref %v", l, got, want)
			}
			if got, want := st.BlockExists(b), ref.minors[b] != nil; got != want {
				t.Fatalf("BlockExists(%d) = %v, ref %v", b, got, want)
			}
			if got, want := st.LiveLines(b), ref.liveLines(b); !reflect.DeepEqual(got, want) {
				t.Fatalf("LiveLines(%d) = %v, ref %v", b, got, want)
			}
			if got, want := st.BlockDigestInput(b), ref.digest(b); !bytes.Equal(got, want) {
				t.Fatalf("BlockDigestInput(%d) differs from ref", b)
			}
			gMaj, gMinors := st.SnapshotBlock(b)
			wMaj, wMinors := ref.snapshot(b)
			if gMaj != wMaj || !reflect.DeepEqual(gMinors, wMinors) {
				t.Fatalf("SnapshotBlock(%d) = %d %v, ref %d %v", b, gMaj, gMinors, wMaj, wMinors)
			}
		}
		for i := range warm {
			write(uint64(1000+i*1_000_003)*per + uint64(i)%per)
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			l := line(ops[1], ops[2])
			switch ops[0] % 4 {
			case 0:
				write(l)
			case 1: // a burst of writes to one line, enough to overflow
				for range int(ops[2]) {
					write(l)
				}
			case 2:
				check(l)
			case 3: // roll another block back to this one's values
				maj, minors := st.SnapshotBlock(l / per)
				dst := line(ops[2], ops[1])
				st.RestoreBlock(dst/per, maj, minors)
				ref.restore(dst/per, maj, minors)
				check(dst)
			}
			check(l)
		}
		if st.BlocksTouched() <= pageRecords || st.BlocksTouched() != len(ref.minors) {
			t.Fatalf("%d blocks touched, ref %d, want more than one page (%d)", st.BlocksTouched(), len(ref.minors), pageRecords)
		}
		for b := range ref.minors {
			check(b * per)
		}
	})
}

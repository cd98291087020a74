package ctr

import (
	"math/rand"
	"reflect"
	"testing"
)

// refStore is a naive model of a MorphCtr Store: a plain map from block to
// its minors and majors, and a format that is recomputed by rescanning all
// minors after every write instead of tracked by an incremental zero count.
type refStore struct {
	s      Scheme
	minors map[uint64][]uint32
	major  map[uint64]uint64
	stats  Stats
}

func newRefStore(s Scheme) *refStore {
	return &refStore{s: s, minors: map[uint64][]uint32{}, major: map[uint64]uint64{}}
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

func (r *refStore) increment(line uint64) (bool, int) {
	r.stats.Increments++
	per := uint64(r.s.LinesPerBlock)
	b, slot := line/per, line%per
	m, ok := r.minors[b]
	if !ok {
		m = make([]uint32, per)
		r.minors[b] = m
	}
	before := sparse(m)
	m[slot]++
	after := sparse(m)
	if after != before {
		if after {
			r.stats.FormatToZCC++
		} else {
			r.stats.FormatToDense++
		}
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
	if !after {
		r.stats.FormatToZCC++
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

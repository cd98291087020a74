package ctr

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestSchemeRatios(t *testing.T) {
	if Split().LinesPerBlock != 64 {
		t.Error("split covers 64 lines")
	}
	if Split().MinorCapacity != 127 {
		t.Error("split's 7-bit minors absorb 127 writes")
	}
	if Morph().LinesPerBlock != 128 {
		t.Error("morphctr covers 128 lines (1:128, §2.2)")
	}
	if Morph().MinorCapacity != 67 {
		t.Error("morphctr re-encrypts after 67 writes (§5)")
	}
}

func TestBlockMapping(t *testing.T) {
	st := NewStore(Morph())
	if st.BlockOf(0) != 0 || st.BlockOf(127) != 0 || st.BlockOf(128) != 1 {
		t.Fatal("128 lines must share one counter block")
	}
	f := func(line uint64) bool {
		line %= 1 << 40
		return st.BlockOf(line) == line/128
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueStartsZero(t *testing.T) {
	st := NewStore(Split())
	if maj, min := st.Value(12345); maj != 0 || min != 0 {
		t.Fatal("unwritten lines have zero counters")
	}
	if st.BlocksTouched() != 0 {
		t.Fatal("reads must not materialise blocks")
	}
}

func TestIncrementAdvancesMinor(t *testing.T) {
	st := NewStore(Morph())
	for i := 1; i <= 5; i++ {
		ov, _ := st.Increment(1000)
		if ov {
			t.Fatal("no overflow expected")
		}
		if _, min := st.Value(1000); min != uint32(i) {
			t.Fatalf("minor = %d after %d writes", min, i)
		}
	}
	if maj, _ := st.Value(1000); maj != 0 {
		t.Fatal("major must not advance before overflow")
	}
	// Sibling line in the same block has its own minor.
	if _, min := st.Value(1001); min != 0 {
		t.Fatal("sibling minor must be independent")
	}
}

func TestOverflowResetsBlock(t *testing.T) {
	st := NewStore(Morph())
	st.Increment(5) // line 5, same block as 0..127
	var overflowed bool
	var reenc int
	for i := uint32(0); i <= Morph().MinorCapacity; i++ {
		overflowed, reenc = st.Increment(0)
	}
	if !overflowed {
		t.Fatal("write past capacity must overflow")
	}
	if reenc != 2 {
		t.Fatalf("re-encrypt lines = %d, want 2 (lines 0 and 5 were live)", reenc)
	}
	maj, min := st.Value(0)
	if maj != 1 || min != 1 {
		t.Fatalf("after overflow: major=%d minor=%d, want 1/1", maj, min)
	}
	if _, min5 := st.Value(5); min5 != 0 {
		t.Fatal("sibling minors must reset on overflow")
	}
	if st.Stats.Overflows != 1 {
		t.Fatalf("overflow count %d", st.Stats.Overflows)
	}
}

func TestCounterValuesNeverRepeatAcrossOverflow(t *testing.T) {
	// Anti-replay invariant: the (major, minor) pair for a line must be
	// unique across every write. Violations would reuse a one-time pad.
	st := NewStore(Morph())
	seen := map[[2]uint64]bool{{0, 0}: true}
	for i := 0; i < 500; i++ {
		st.Increment(7)
		maj, min := st.Value(7)
		key := [2]uint64{maj, uint64(min)}
		if seen[key] {
			t.Fatalf("counter pair %v repeated at write %d — OTP reuse!", key, i)
		}
		seen[key] = true
	}
}

func TestMorphFormatTransitions(t *testing.T) {
	st := NewStore(Morph())
	// Write most lines in one block: the block densifies, then overflow
	// returns it to ZCC.
	for line := uint64(0); line < 100; line++ {
		st.Increment(line)
	}
	if st.Stats.FormatToDense == 0 {
		t.Error("dense block should leave ZCC format")
	}
	for i := uint32(0); i <= Morph().MinorCapacity+1; i++ {
		st.Increment(0)
	}
	if st.Stats.FormatToZCC == 0 {
		t.Error("overflow should restore ZCC format")
	}
}

func TestCtrBlocksFor(t *testing.T) {
	// 32GB / 64B lines / 128 per block = 4,194,304 blocks.
	if got := Morph().CtrBlocksFor(32 << 30); got != 4194304 {
		t.Fatalf("CtrBlocksFor(32GB) = %d", got)
	}
	if got := Split().CtrBlocksFor(64 * 64); got != 1 {
		t.Fatalf("one block expected, got %d", got)
	}
	if got := Split().CtrBlocksFor(64*64 + 1); got != 2 {
		t.Fatalf("rounding up expected, got %d", got)
	}
}

func TestInvalidSchemePanics(t *testing.T) {
	wide := Split()
	wide.MinorCapacity = 255 // an overflowing write would not fit a byte
	for _, s := range []Scheme{{}, wide} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStore(%+v) should panic", s)
				}
			}()
			NewStore(s)
		}()
	}
	edge := Split()
	edge.MinorCapacity = 254
	st := NewStore(edge)
	for i := uint32(0); i < edge.MinorCapacity; i++ {
		st.Increment(9)
	}
	if _, min := st.Value(9); min != 254 {
		t.Fatalf("minor = %d after 254 writes", min)
	}
	if ov, _ := st.Increment(9); !ov {
		t.Fatal("write 255 must overflow")
	}
}

func TestRestoreBlockRejectsWideMinor(t *testing.T) {
	st := NewStore(Morph())
	minors := make([]uint32, Morph().LinesPerBlock)
	minors[3] = 256
	defer func() {
		if recover() == nil {
			t.Fatal("RestoreBlock must panic on a minor that does not fit a byte")
		}
		if st.BlockExists(0) {
			t.Fatal("a rejected restore must not materialise the block")
		}
	}()
	st.RestoreBlock(0, 1, minors)
}

// TestStoreBytesPerBlock bounds the live heap a materialised MorphCtr
// block costs: its byte minors, header and index entry.
func TestStoreBytesPerBlock(t *testing.T) {
	const blocks = 200_000
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	st := NewStore(Morph())
	for b := uint64(0); b < blocks; b++ {
		st.Increment(b*uint64(Morph().LinesPerBlock) + b%128)
	}
	after := heap()
	runtime.KeepAlive(st)
	per := float64(after-before) / blocks
	t.Logf("%.1f B of live heap per block", per)
	if per > 200 {
		t.Fatalf("%.1f B of live heap per materialised block, want at most 200", per)
	}
}

func TestSplitCapacity(t *testing.T) {
	st := NewStore(Split())
	for i := uint32(0); i < Split().MinorCapacity; i++ {
		if ov, _ := st.Increment(0); ov {
			t.Fatalf("overflow too early at write %d", i+1)
		}
	}
	if ov, _ := st.Increment(0); !ov {
		t.Fatal("split must overflow at capacity+1")
	}
}

package cache

import (
	"math/rand"
	"testing"

	"cosmos/internal/memsys"
)

// wbSink is a terminal Level that records every writeback it absorbs.
type wbSink struct {
	writebacks uint64
	lines      map[uint64]uint64
}

func newWBSink() *wbSink { return &wbSink{lines: map[uint64]uint64{}} }

func (s *wbSink) Writeback(r memsys.Request) {
	s.writebacks++
	s.lines[r.Line]++
}

// wbTap wraps a Level and counts the writebacks delivered to it, so a test
// can observe the traffic crossing each link of a chain.
type wbTap struct {
	memsys.Level
	received uint64
}

func (t *wbTap) Writeback(r memsys.Request) {
	t.received++
	t.Level.Writeback(r)
}

// TestWritebackConservation drives a randomized access stream through a
// three-level chain and checks the conservation property: every dirty
// eviction a level produces is delivered to exactly one place — the level
// directly below it — and nothing else ever reaches the terminal.
func TestWritebackConservation(t *testing.T) {
	sink := newWBSink()
	l3 := NewLevel(New("l3", 32<<10, 4, NewLRU()), 10, sink)
	tap3 := &wbTap{Level: l3}
	l2 := NewLevel(New("l2", 16<<10, 4, NewLRU()), 5, tap3)
	tap2 := &wbTap{Level: l2}
	l1 := NewLevel(New("l1", 4<<10, 2, NewLRU()), 1, tap2)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		line, write, sig := uint64(rng.Intn(1<<14)), rng.Intn(100) < 35, uint16(rng.Intn(8))
		l1.Probe(line, write, sig, 0, uint64(i))
	}

	if l1.Cache().Stats.Writebacks == 0 {
		t.Fatal("stream produced no dirty evictions; property vacuous")
	}
	if got, want := tap2.received, l1.Cache().Stats.Writebacks; got != want {
		t.Fatalf("l2 received %d writebacks, l1 emitted %d", got, want)
	}
	if got, want := tap3.received, l2.Cache().Stats.Writebacks; got != want {
		t.Fatalf("l3 received %d writebacks, l2 emitted %d", got, want)
	}
	if got, want := sink.writebacks, l3.Cache().Stats.Writebacks; got != want {
		t.Fatalf("terminal received %d writebacks, l3 emitted %d", got, want)
	}
}

// TestWritebackInstallIsDirty checks that an arriving writeback installs
// the line dirty: evicting it later must forward it down, not drop it.
func TestWritebackInstallIsDirty(t *testing.T) {
	sink := newWBSink()
	// Direct-mapped single-set cache: any two distinct lines conflict.
	lv := NewLevel(New("lv", 64, 1, NewLRU()), 1, sink)

	lv.Writeback(memsys.Request{Line: 1, Write: true, Sig: memsys.SigWriteback})
	lv.Writeback(memsys.Request{Line: 2, Write: true, Sig: memsys.SigWriteback})
	if sink.writebacks != 1 || sink.lines[1] != 1 {
		t.Fatalf("displaced dirty install must land below exactly once; sink saw %v", sink.lines)
	}
}

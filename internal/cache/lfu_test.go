package cache

import "testing"

func TestLFURetainsHotLines(t *testing.T) {
	lfu := NewLFU()
	c := New("c", 64*4, 4, lfu) // 1 set, 4 ways
	// Make lines 0 and 1 hot.
	for i := 0; i < 50; i++ {
		c.Access(0, false, 0)
		c.Access(1, false, 0)
	}
	c.Access(2, false, 0)
	c.Access(3, false, 0)
	// A streaming sequence must evict among the cold lines only.
	for i := uint64(10); i < 40; i++ {
		c.Access(i, false, 0)
	}
	if !c.Contains(0) || !c.Contains(1) {
		t.Fatal("LFU evicted hot lines during a scan")
	}
}

func TestLFUAgingAllowsTurnover(t *testing.T) {
	lfu := NewLFU()
	lfu.agePer = 64 // age fast for the test
	c := New("c", 64*2, 2, lfu)
	for i := 0; i < 100; i++ {
		c.Access(0, false, 0) // very hot... for a while
	}
	c.Access(1, false, 0)
	// Now line 1 becomes the hot one; aging must let it displace 0's
	// legacy count eventually.
	for i := 0; i < 400; i++ {
		c.Access(1, false, 0)
		c.Access(uint64(10+i%2), false, 0) // churn pressure
	}
	if !c.Contains(1) {
		t.Fatal("new hot line not retained")
	}
}

func TestLFUVictimTieBreak(t *testing.T) {
	lfu := NewLFU()
	c := New("c", 64*3, 3, lfu)
	// Stores, so the victim is dirty and reports its line.
	c.Access(0, true, 0)
	c.Access(1, true, 0)
	c.Access(2, true, 0)
	// Equal counts: the oldest (0) is the victim.
	r := c.Access(9, false, 0)
	if r.EvictedLine != 0 {
		t.Fatalf("victim %d, want 0 (oldest at equal frequency)", r.EvictedLine)
	}
}

func TestDRRIPFunctional(t *testing.T) {
	c := New("c", 32*1024, 8, NewDRRIP())
	state := uint64(7)
	for i := 0; i < 100000; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		c.Access(state%8192, false, uint16(state))
	}
	if c.Stats.Hits == 0 || c.Stats.Hits+c.Stats.Misses != c.Stats.Accesses {
		t.Fatalf("stats broken: %+v", c.Stats)
	}
}

func TestDRRIPBeatsSRRIPOnThrash(t *testing.T) {
	// Cyclic working set slightly larger than the cache: SRRIP thrashes
	// (hit rate ≈ 0); DRRIP's BRRIP mode retains a fraction.
	run := func(p Policy) float64 {
		c := New("c", 64*16*64, 16, p) // 64 sets × 16 ways = 1024 lines
		for rep := 0; rep < 60; rep++ {
			for i := uint64(0); i < 1500; i++ { // 1.5× capacity
				c.Access(i, false, 1)
			}
		}
		return c.Stats.HitRate()
	}
	srrip := run(NewRRIP())
	drrip := run(NewDRRIP())
	if drrip <= srrip {
		t.Fatalf("DRRIP (%v) should beat SRRIP (%v) on a thrashing loop", drrip, srrip)
	}
}

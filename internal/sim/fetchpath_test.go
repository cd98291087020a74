package sim

import (
	"testing"

	"cosmos/internal/memsys"
	"cosmos/internal/secmem"
)

// fetchAt resolves one all-miss off-chip read of line on core 0 the way
// Step does: open the plan, then compose the timed path.
func fetchAt(s *System, now, line uint64) fetchPath {
	addr := memsys.LineToAddr(line)
	return s.composeFetch(0, now, line, addr, s.planFetch(0, now, line, addr))
}

func TestFetchPathLatencyOrdering(t *testing.T) {
	s := New(DefaultConfig(), secmem.DesignMorph())
	// Space the fetches far apart in time so bank-busy effects from
	// earlier metadata fetches don't confound the comparison. Lines 5000
	// and 5001 share a counter block, so the second fetch hits.
	miss := fetchAt(s, 1_000_000, 5000)
	hit := fetchAt(s, 3_000_000, 5001)
	if miss.ctrHit || !hit.ctrHit {
		t.Fatalf("counter hits: first %v, second %v; want miss then hit", miss.ctrHit, hit.ctrHit)
	}
	if hit.finish() >= miss.finish() {
		t.Fatalf("CTR-hit fetch %d should beat CTR-miss fetch %d", hit.finish(), miss.finish())
	}

	// Starting the counter pipeline at the L1-miss point must never
	// lengthen the fetch: replay the identical fetch on two fresh systems,
	// varying only when the counter access starts.
	for _, warm := range []bool{false, true} {
		late, early := New(DefaultConfig(), secmem.DesignMorph()), New(DefaultConfig(), secmem.DesignMorph())
		if warm {
			fetchAt(late, 0, 90000)
			fetchAt(early, 0, 90000)
		}
		lp := fetchAt(late, 1_000_000, 90001)
		addr := memsys.LineToAddr(90001)
		p := early.planFetch(0, 1_000_000, 90001, addr)
		p.earlyCtr, p.ctrRes = true, early.mc.CtrAccess(0, 1_000_000, 90001, false)
		ep := early.composeFetch(0, 1_000_000, 90001, addr, p)
		if ep.ctrHit != lp.ctrHit {
			t.Fatalf("warm=%v: early and late fetches disagree on the counter hit", warm)
		}
		if ep.finish() > lp.finish() {
			t.Fatalf("warm=%v: early counter start lengthened the fetch: %d > %d", warm, ep.finish(), lp.finish())
		}
	}
}

func TestNPFetchPathIsJustDRAM(t *testing.T) {
	s := New(DefaultConfig(), secmem.DesignNP())
	f := fetchAt(s, 0, 0x4000>>memsys.LineOffsetBits)
	if f.dataLat == 0 {
		t.Fatal("NP fetch must still cost DRAM time")
	}
	if got, want := f.finish(), s.walkLat+f.dataLat; got != want {
		t.Fatalf("NP fetch finishes at %d, want walk+DRAM %d", got, want)
	}
	tr := s.mc.Traffic
	if tr.CtrRead != 0 || tr.MTRead != 0 || tr.MACRead != 0 {
		t.Fatalf("NP must not touch metadata: %+v", tr)
	}
	if tr.DataRead != 1 {
		t.Fatalf("data reads = %d, want 1", tr.DataRead)
	}
}

func TestFetchPathMACCached(t *testing.T) {
	s := New(DefaultConfig(), secmem.DesignMorph())
	fetchAt(s, 0, 0)
	macReads := s.mc.Traffic.MACRead
	if macReads == 0 {
		t.Fatal("first secure fetch read no MAC")
	}
	// Lines 1..7 share line 0's MAC block: no further MAC DRAM reads.
	for l := uint64(1); l < 8; l++ {
		fetchAt(s, l*100, l)
	}
	if s.mc.Traffic.MACRead != macReads {
		t.Fatalf("MAC block covering 8 lines re-fetched: %d → %d", macReads, s.mc.Traffic.MACRead)
	}
}

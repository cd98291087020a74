package sim

import (
	"testing"

	"cosmos/internal/memsys"
	"cosmos/internal/secmem"
)

// TestEightCoreGeometry pins the Fig 15 machine: 8 cores, the LLC doubled
// to 16MB, and the MC sized for 8 per-core metadata caches.
func TestEightCoreGeometry(t *testing.T) {
	cfg := EightCore()
	if cfg.Cores != 8 {
		t.Fatalf("Cores = %d, want 8", cfg.Cores)
	}
	if cfg.LLCBytes != 16<<20 {
		t.Fatalf("LLCBytes = %d, want 16MB", cfg.LLCBytes)
	}
	if cfg.MC.Cores != 8 {
		t.Fatalf("MC.Cores = %d, want 8", cfg.MC.Cores)
	}
	// Everything else stays at the Table 3 defaults.
	def := DefaultConfig()
	if cfg.L1Bytes != def.L1Bytes || cfg.L2Bytes != def.L2Bytes || cfg.MLP != def.MLP {
		t.Fatal("EightCore must only scale cores and LLC")
	}

	s := New(cfg, secmem.DesignCosmos())
	llc := s.Chain(0)[2].Cache()
	if llc.SizeBytes() != 16<<20 {
		t.Fatalf("built LLC is %d bytes, want 16MB", llc.SizeBytes())
	}
	// The LLC is one shared level in every core's chain; L1/L2 are private.
	for c := 1; c < 8; c++ {
		if s.Chain(c)[2] != s.Chain(0)[2] {
			t.Fatalf("core %d has a private LLC", c)
		}
		if s.Chain(c)[0] == s.Chain(0)[0] || s.Chain(c)[1] == s.Chain(0)[1] {
			t.Fatalf("core %d shares a private level with core 0", c)
		}
	}
}

// TestEightCoreThreadMapping checks thread→core assignment past the default
// 4 threads: thread t runs on core t mod 8, so 16 threads load all 8 cores
// twice and none beyond that.
func TestEightCoreThreadMapping(t *testing.T) {
	s := New(EightCore(), secmem.DesignNP())
	for tid := 0; tid < 16; tid++ {
		// Distinct cold lines so every step costs the same full path.
		s.Step(memsys.Access{Addr: memsys.Addr(uint64(tid) << 20), Thread: uint8(tid)})
	}
	busy := 0
	for c, cyc := range s.threadCycles {
		if cyc == 0 {
			t.Fatalf("core %d idle after 16 threads", c)
		}
		busy++
	}
	if busy != 8 {
		t.Fatalf("%d cores busy, want 8", busy)
	}
	// Threads 8..15 wrapped onto cores 0..7: each core advanced twice as
	// far as a single cold access would.
	one := New(EightCore(), secmem.DesignNP())
	one.Step(memsys.Access{Addr: 1 << 20, Thread: 0})
	single := one.threadCycles[0]
	for c, cyc := range s.threadCycles {
		if cyc <= single {
			t.Fatalf("core %d cycles %d suggest only one thread landed there (single access = %d)",
				c, cyc, single)
		}
	}
}

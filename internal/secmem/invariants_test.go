package secmem

import (
	"testing"

	"cosmos/internal/rl"
)

// TestTrafficConservation drives the engine with a random metadata workload
// and checks the bookkeeping identities that every figure depends on:
// hits+misses = accesses, each miss produced exactly one CTR DRAM read, and
// DRAM model reads cover every traffic category.
func TestTrafficConservation(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg, DesignMorph())
	rng := rl.NewRand(77)
	const n = 50000
	for i := 0; i < n; i++ {
		line := rng.Uint64() % (cfg.MemBytes / 64)
		e.CtrAccess(0, uint64(i)*10, line, rng.Intn(4) == 0)
	}
	if e.CtrHits+e.CtrMisses != n {
		t.Fatalf("hits %d + misses %d != %d accesses", e.CtrHits, e.CtrMisses, n)
	}
	if e.Traffic.CtrRead != e.CtrMisses {
		t.Fatalf("ctr DRAM reads %d != ctr misses %d", e.Traffic.CtrRead, e.CtrMisses)
	}
	d := e.DRAMStats()
	if d.Reads != e.Traffic.CtrRead+e.Traffic.MTRead {
		t.Fatalf("DRAM reads %d != ctr %d + mt %d", d.Reads, e.Traffic.CtrRead, e.Traffic.MTRead)
	}
	if d.Writes != e.Traffic.CtrWrite+e.Traffic.ReEncWrite {
		t.Fatalf("DRAM writes %d != ctrWB %d + reenc %d", d.Writes, e.Traffic.CtrWrite, e.Traffic.ReEncWrite)
	}
}

func TestResetStatsKeepsLearnedState(t *testing.T) {
	e := NewEngine(testConfig(), DesignCosmos())
	for i := uint64(0); i < 2000; i++ {
		e.CtrAccess(0, i, i%512, false)
		p := e.DataPred.Predict(i * 64)
		e.DataPred.Learn(p, i%2 == 0)
	}
	e.ResetStats()
	if e.CtrHits != 0 || e.CtrMisses != 0 || e.Traffic.Total() != 0 {
		t.Fatal("counters not reset")
	}
	if e.DataPred.Stats.Total() != 0 {
		t.Fatal("predictor stats not reset")
	}
	// Learned state survives: a previously-cached counter still hits.
	r := e.CtrAccess(0, 99999, 1, false)
	if !r.Hit {
		t.Fatal("ctr cache contents were lost by ResetStats")
	}
}

func TestMEETreeIsDeeper(t *testing.T) {
	base := testConfig()
	mee := base
	mee.MEETree = true
	eb := NewEngine(base, DesignMorph())
	em := NewEngine(mee, DesignMorph())
	// Same cold miss: the MEE-style tree must fetch more path nodes.
	eb.CtrAccess(0, 0, 4096, false)
	em.CtrAccess(0, 0, 4096, false)
	if em.Traffic.MTRead <= eb.Traffic.MTRead {
		t.Fatalf("MEE tree MT reads %d should exceed Bonsai %d",
			em.Traffic.MTRead, eb.Traffic.MTRead)
	}
}

func TestRMCCUsesLFU(t *testing.T) {
	e := NewEngine(testConfig(), DesignRMCC())
	if got := e.ctrCaches[0].Policy().Name(); got != "LFU" {
		t.Fatalf("RMCC ctr policy = %s, want LFU", got)
	}
	// RMCC is a baseline: it must not instantiate COSMOS predictors.
	if e.DataPred != nil || e.CtrPred != nil {
		t.Fatal("RMCC must not use RL predictors")
	}
}

func TestWriteAccessMarksCtrDirty(t *testing.T) {
	cfg := testConfig()
	cfg.CtrCacheBytes = 2048 // tiny to force the writeback quickly
	e := NewEngine(cfg, DesignMorph())
	e.CtrAccess(0, 0, 0, true) // dirty fill
	// Evict it by filling the set with conflicting counter blocks.
	wb0 := e.Traffic.CtrWrite
	for i := uint64(1); i < 64; i++ {
		e.CtrAccess(0, i, i*128*32, false)
	}
	if e.Traffic.CtrWrite == wb0 {
		t.Fatal("dirty counter line never written back")
	}
}

package secmem

import "testing"

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.MemBytes = 1 << 30 // smaller tree for tests
	cfg.CtrCacheBytes = 16 << 10
	cfg.LCRCacheBytes = 16 << 10
	return cfg
}

func TestDesignRegistry(t *testing.T) {
	for _, name := range []string{"NP", "MorphCtr", "EMCC", "Morph@L1", "COSMOS-DP", "COSMOS-CP", "COSMOS"} {
		d, err := DesignByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Name != name {
			t.Fatalf("resolved %q for %q", d.Name, name)
		}
	}
	if _, err := DesignByName("bogus"); err == nil {
		t.Fatal("unknown design must error")
	}
	if DesignNP().Secure {
		t.Fatal("NP must be insecure")
	}
	if !DesignCosmos().UseLCR || DesignCosmos().Early != EarlyPredicted {
		t.Fatal("COSMOS must combine both predictors")
	}
	if DesignCosmosDP().UseLCR || DesignCosmosDP().Early != EarlyPredicted {
		t.Fatal("COSMOS-DP is data predictor only")
	}
	if !DesignCosmosCP().UseLCR || DesignCosmosCP().Early != EarlyNone {
		t.Fatal("COSMOS-CP is locality predictor only")
	}
}

func TestEnginePredictorsPerDesign(t *testing.T) {
	cfg := testConfig()
	if e := NewEngine(cfg, DesignMorph()); e.DataPred != nil || e.CtrPred != nil {
		t.Fatal("MorphCtr must not instantiate predictors")
	}
	if e := NewEngine(cfg, DesignCosmos()); e.DataPred == nil || e.CtrPred == nil {
		t.Fatal("COSMOS needs both predictors")
	}
	if e := NewEngine(cfg, DesignCosmosDP()); e.DataPred == nil || e.CtrPred != nil {
		t.Fatal("COSMOS-DP predictor set wrong")
	}
	if e := NewEngine(cfg, DesignCosmosCP()); e.DataPred != nil || e.CtrPred == nil {
		t.Fatal("COSMOS-CP predictor set wrong")
	}
}

func TestCtrAccessHitMiss(t *testing.T) {
	e := NewEngine(testConfig(), DesignMorph())
	r1 := e.CtrAccess(0, 0, 1000, false)
	if r1.Hit {
		t.Fatal("cold CTR access must miss")
	}
	if e.Traffic.CtrRead != 1 {
		t.Fatalf("ctr reads = %d", e.Traffic.CtrRead)
	}
	if e.Traffic.MTRead == 0 {
		t.Fatal("CTR miss must fetch MT nodes")
	}
	// Any line in the same counter block (128 lines) shares the CTR.
	r2 := e.CtrAccess(0, 0, 1001, false)
	if !r2.Hit {
		t.Fatal("same-block CTR access must hit")
	}
	if r2.Latency >= r1.Latency {
		t.Fatalf("hit latency %d should beat miss latency %d", r2.Latency, r1.Latency)
	}
	if e.CtrHits != 1 || e.CtrMisses != 1 {
		t.Fatalf("hits=%d misses=%d", e.CtrHits, e.CtrMisses)
	}
}

func TestMTStopAtHitVsFullTraversal(t *testing.T) {
	run := func(full bool) uint64 {
		cfg := testConfig()
		cfg.FullTraversal = full
		e := NewEngine(cfg, DesignMorph())
		// Two CTR misses to adjacent counter blocks: their MT paths
		// share ancestors, so stop-at-hit fetches fewer nodes the
		// second time.
		e.CtrAccess(0, 0, 0, false)
		e.CtrAccess(0, 0, 128, false)
		return e.Traffic.MTRead
	}
	partial := run(false)
	full := run(true)
	if partial >= full {
		t.Fatalf("stop-at-hit MT reads (%d) should be below full traversal (%d)", partial, full)
	}
}

func TestCounterIncrementAndOverflow(t *testing.T) {
	e := NewEngine(testConfig(), DesignMorph())
	for i := 0; i < 70; i++ { // MorphCtr capacity is 67
		e.CtrAccess(0, 0, 42, true)
	}
	if e.Traffic.ReEncWrite == 0 {
		t.Fatal("68+ writes to one line must trigger re-encryption traffic")
	}
}

func TestMACCaching(t *testing.T) {
	e := NewEngine(testConfig(), DesignMorph())
	e.MACAccess(0, 0, 0, false)
	if e.Traffic.MACRead != 1 {
		t.Fatalf("MAC reads = %d", e.Traffic.MACRead)
	}
	// The same MAC block covers lines 0..7.
	for l := uint64(1); l < 8; l++ {
		e.MACAccess(0, 0, l, false)
	}
	if e.Traffic.MACRead != 1 {
		t.Fatalf("MAC block covering 8 lines fetched %d times", e.Traffic.MACRead)
	}
}

func TestWastedFetchCounted(t *testing.T) {
	e := NewEngine(testConfig(), DesignCosmos())
	e.WastedFetch(0, 0x1000)
	if e.Traffic.WastedDataFetch != 1 {
		t.Fatal("wasted fetch not counted")
	}
}

func TestLCRHintsApplied(t *testing.T) {
	e := NewEngine(testConfig(), DesignCosmos())
	res := e.CtrAccess(0, 0, 777, false)
	// The LCR policy must hold the classification for the filled line.
	lcr := e.lcrPols[0]
	ctrLine := e.layout.CtrAddr(777).Line()
	set := int(ctrLine) & (e.ctrCaches[0].Sets() - 1)
	found := false
	for w := 0; w < e.ctrCaches[0].Ways(); w++ {
		good, score := lcr.Hint(set, w)
		if good == res.Good && score == res.Score {
			found = true
		}
	}
	if !found {
		t.Fatal("locality hint not propagated to the LCR cache")
	}
}

func TestPrefetcherIssuesAndVerifies(t *testing.T) {
	cfg := testConfig()
	d := DesignMorph()
	d.CtrPrefetcher = "nextline"
	e := NewEngine(cfg, d)
	mt0 := e.Traffic.MTRead
	e.CtrAccess(0, 0, 0, false) // prefetches the next CTR line
	if e.pfStats.Issued == 0 {
		t.Fatal("next-line prefetcher must issue")
	}
	if e.Traffic.CtrRead < 2 {
		t.Fatalf("prefetch must cost a CTR DRAM read, got %d", e.Traffic.CtrRead)
	}
	if e.Traffic.MTRead <= mt0 {
		t.Fatal("prefetched CTRs still need integrity checks (§3.3)")
	}
	// Demand access to the prefetched block: useful prefetch.
	e.CtrAccess(0, 0, 128, false)
	if e.pfStats.Useful == 0 {
		t.Fatal("useful prefetch not recognised")
	}
	if acc := e.PrefetchStats().Accuracy(); acc <= 0 || acc > 1 {
		t.Fatalf("accuracy %v out of range", acc)
	}
}

func TestDirtyCtrWriteback(t *testing.T) {
	cfg := testConfig()
	cfg.CtrCacheBytes = 4 << 10 // tiny: force evictions
	e := NewEngine(cfg, DesignMorph())
	for i := uint64(0); i < 4096; i++ {
		e.CtrAccess(0, 0, i*128, i%2 == 0) // every other access writes
	}
	if e.Traffic.CtrWrite == 0 {
		t.Fatal("dirty counter evictions must write back to DRAM")
	}
}

func TestTrafficTotal(t *testing.T) {
	tr := Traffic{DataRead: 1, DataWrite: 2, CtrRead: 3, CtrWrite: 4, MTRead: 5, MACRead: 6, MACWrite: 7, ReEncWrite: 8, WastedDataFetch: 9}
	if tr.Total() != 45 {
		t.Fatalf("total = %d", tr.Total())
	}
}

package sim

import (
	"testing"

	"cosmos/internal/memsys"
	"cosmos/internal/secmem"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MC.MemBytes = 1 << 30
	return cfg
}

func region(base memsys.Addr, size uint64) memsys.Region {
	return memsys.Region{Base: base, Size: size, Elem: 1}
}

func TestL1HitFastPath(t *testing.T) {
	s := New(testConfig(), secmem.DesignNP())
	a := memsys.Access{Addr: 0x1000}
	s.Step(a) // cold miss
	lat := s.Step(a)
	if lat != s.cfg.L1Lat {
		t.Fatalf("L1 hit latency %d, want %d", lat, s.cfg.L1Lat)
	}
}

func TestMissCascadeLatencies(t *testing.T) {
	s := New(testConfig(), secmem.DesignNP())
	lat := s.Step(memsys.Access{Addr: 0x40000})
	// Cold miss: L1 + L2 + max(LLC, DRAM) — the DRAM read overlaps the
	// LLC lookup.
	if lat < s.cfg.L1Lat+s.cfg.L2Lat+s.cfg.LLCLat {
		t.Fatalf("cold miss latency %d too small", lat)
	}
	r := s.Results("t")
	if r.L1MissRate != 1 || r.L2MissRate != 1 || r.LLCMissRate != 1 {
		t.Fatalf("cold miss rates: %v %v %v", r.L1MissRate, r.L2MissRate, r.LLCMissRate)
	}
	if r.Traffic.DataRead != 1 {
		t.Fatalf("data reads = %d", r.Traffic.DataRead)
	}
}

func TestSecureDesignCostsMore(t *testing.T) {
	// The same random workload must run slower under MorphCtr than NP.
	run := func(d secmem.Design) Results {
		s := New(testConfig(), d)
		gen := trace.NewUniform(region(1<<28, 256<<20), 10, 7, 1)
		return s.Run(trace.Limit(gen, 60000), 60000)
	}
	np := run(secmem.DesignNP())
	morph := run(secmem.DesignMorph())
	if morph.Cycles <= np.Cycles {
		t.Fatalf("MorphCtr cycles %d should exceed NP %d", morph.Cycles, np.Cycles)
	}
	if morph.CtrMissRate == 0 {
		t.Fatal("random 256MB stream must miss the CTR cache")
	}
	if morph.Traffic.MTRead == 0 || morph.Traffic.MACRead == 0 {
		t.Fatalf("secure traffic missing: %+v", morph.Traffic)
	}
	if np.Traffic.MTRead != 0 {
		t.Fatal("NP must have zero metadata traffic")
	}
	if morph.SMAT <= np.SMAT {
		t.Fatalf("SMAT: morph %v should exceed np %v", morph.SMAT, np.SMAT)
	}
}

func TestWritebacksGenerateCounterTraffic(t *testing.T) {
	s := New(testConfig(), secmem.DesignMorph())
	// Write-heavy stream over a footprint far beyond the LLC forces
	// dirty LLC evictions → DRAM writes + counter increments.
	gen := trace.NewUniform(region(1<<28, 64<<20), 100, 3, 1)
	r := s.Run(trace.Limit(gen, 80000), 80000)
	if r.Traffic.DataWrite == 0 {
		t.Fatal("no writebacks reached DRAM")
	}
}

func TestCosmosBypassesWalk(t *testing.T) {
	s := New(testConfig(), secmem.DesignCosmos())
	gen := trace.NewUniform(region(1<<28, 256<<20), 0, 9, 1)
	r := s.Run(trace.Limit(gen, 60000), 60000)
	if r.Bypassed == 0 {
		t.Fatal("COSMOS never bypassed the on-chip walk")
	}
	if r.DataPred == nil || r.DataPred.Total() == 0 {
		t.Fatal("data predictions not graded")
	}
	// A uniform far-larger-than-LLC stream is overwhelmingly off-chip;
	// the predictor should learn that and be mostly correct.
	if acc := r.DataPred.Accuracy(); acc < 0.6 {
		t.Fatalf("data prediction accuracy %v too low on a trivially off-chip stream", acc)
	}
	if r.CtrPred == nil {
		t.Fatal("COSMOS must run the locality predictor")
	}
}

func TestEarlyAccessImprovesCtrHitRateOnHotStream(t *testing.T) {
	// A zipf-skewed stream: hot lines live in L1/L2, so the baseline CTR
	// cache (fed only by LLC misses) sees cold counters, while early
	// access (fed by L1 misses) sees the hot mid-tier too.
	mk := func() trace.Generator {
		return trace.Limit(trace.NewZipf(region(1<<28, 512<<20), 1<<20, 0.8, 5, 1), 150000)
	}
	base := New(testConfig(), secmem.DesignMorph()).Run(mk(), 150000)
	early := New(testConfig(), secmem.DesignEMCC()).Run(mk(), 150000)
	if early.CtrMissRate >= base.CtrMissRate {
		t.Fatalf("early CTR access should reduce miss rate: early %.3f vs base %.3f",
			early.CtrMissRate, base.CtrMissRate)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Results {
		s := New(testConfig(), secmem.DesignCosmos())
		gen := trace.NewUniform(region(1<<28, 128<<20), 20, 11, 1)
		return s.Run(trace.Limit(gen, 30000), 30000)
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.CtrMissRate != b.CtrMissRate || a.Traffic != b.Traffic {
		t.Fatal("simulation must be deterministic")
	}
}

func TestThreadsMapToCores(t *testing.T) {
	cfg := testConfig()
	s := New(cfg, secmem.DesignNP())
	for th := uint8(0); th < 4; th++ {
		s.Step(memsys.Access{Addr: memsys.Addr(0x100000 + uint64(th)*64), Thread: th})
	}
	busy := 0
	for _, cyc := range s.threadCycles {
		if cyc > 0 {
			busy++
		}
	}
	if busy != 4 {
		t.Fatalf("%d cores advanced, want 4", busy)
	}
}

func TestRunStopsAtGeneratorEnd(t *testing.T) {
	s := New(testConfig(), secmem.DesignNP())
	gen := trace.Limit(trace.NewSequential(region(1<<28, 64<<10), 0, 1), 500)
	r := s.Run(gen, 1<<40)
	if r.Accesses != 500 {
		t.Fatalf("ran %d accesses, want 500", r.Accesses)
	}
	if r.IPC <= 0 {
		t.Fatal("IPC must be positive")
	}
}

func TestEightCoreConfig(t *testing.T) {
	cfg := EightCore()
	if cfg.Cores != 8 || cfg.LLCBytes != 16<<20 {
		t.Fatalf("EightCore: %+v", cfg)
	}
	cfg.MC.MemBytes = 1 << 30
	s := New(cfg, secmem.DesignCosmos())
	gen, err := workloads.Build("BFS", workloads.Options{Threads: 8, GraphNodes: 3000, GraphDegree: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run(trace.Limit(gen, 20000), 20000)
	if r.Accesses == 0 {
		t.Fatal("8-core run produced nothing")
	}
}

func TestGraphWorkloadEndToEnd(t *testing.T) {
	for _, design := range []secmem.Design{secmem.DesignMorph(), secmem.DesignCosmos()} {
		cfg := testConfig()
		s := New(cfg, design)
		gen, err := workloads.Build("DFS", workloads.Options{Threads: 4, GraphNodes: 5000, GraphDegree: 6, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		r := s.Run(trace.Limit(gen, 50000), 50000)
		if r.Accesses != 50000 {
			t.Fatalf("%s: accesses %d", design.Name, r.Accesses)
		}
		if r.L1MissRate <= 0 || r.L1MissRate >= 1 {
			t.Fatalf("%s: degenerate L1 miss rate %v", design.Name, r.L1MissRate)
		}
		if design.Secure && r.CtrAccesses == 0 {
			t.Fatalf("%s: no CTR accesses", design.Name)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutate := func(f func(*Config)) error {
		cfg := testConfig()
		f(&cfg)
		return cfg.Validate()
	}
	cases := []struct {
		name string
		f    func(*Config)
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"zero mlp", func(c *Config) { c.MLP = 0 }},
		{"zero instr-per-access", func(c *Config) { c.InstrPerAccess = 0 }},
		{"non-power-of-two L1", func(c *Config) { c.L1Bytes = 48 << 10 }},
		{"zero L2 latency", func(c *Config) { c.L2Lat = 0 }},
		{"zero mem", func(c *Config) { c.MC.MemBytes = 0 }},
		{"bad ctr cache", func(c *Config) { c.MC.CtrCacheBytes = 100 }},
		{"bad dram row", func(c *Config) { c.MC.DRAM.RowBytes = 100 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := mutate(tc.f); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

package sim

import (
	"testing"

	"cosmos/internal/memsys"
	"cosmos/internal/secmem"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

func TestWarmupClearsMeasurementsKeepsState(t *testing.T) {
	cfg := testConfig()
	s := New(cfg, secmem.DesignCosmos())
	gen := trace.NewUniform(region(1<<28, 64<<20), 10, 5, 1)
	s.Warmup(gen, 20000)

	r := s.Results("warm")
	if r.Accesses != 0 || r.Cycles != 0 || r.Traffic.Total() != 0 {
		t.Fatalf("warmup left measurements: %+v", r)
	}
	if r.DataPred != nil && r.DataPred.Total() != 0 {
		t.Fatal("predictor stats not cleared")
	}
	// Learned state survives: the first post-warmup access to a recently
	// touched hot line should hit on-chip.
	l1 := s.Chain(0)[0].Cache()
	hits0 := l1.Stats.Hits
	probe := memsys.Access{Addr: 1 << 28}
	s.Step(probe)
	s.Step(probe)
	if l1.Stats.Hits == hits0 {
		t.Fatal("caches were flushed by warmup")
	}
}

// TestWarmupKeepsStreamPosition pins how much of the stream Warmup
// consumes: exactly n accesses, with no read-ahead, so a run that follows
// it starts at access n. 20,001 is not a multiple of the decode block, and
// the mix's producer returns short blocks at its batch boundaries.
func TestWarmupKeepsStreamPosition(t *testing.T) {
	const n = 20_001
	for name, build := range map[string]func() trace.Generator{
		"uniform": func() trace.Generator { return trace.NewUniform(region(1<<28, 64<<20), 10, 5, 1) },
		"mix": func() trace.Generator {
			g, err := workloads.BuildMix([]string{"mcf", "omnetpp"}, workloads.Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
	} {
		fresh := build()
		var want [n + 1]memsys.Access
		for got := 0; got < len(want); {
			m := trace.NextBlock(fresh, want[got:])
			if m == 0 {
				t.Fatalf("%s: stream ended after %d accesses", name, got)
			}
			got += m
		}
		trace.CloseIfCloser(fresh)

		g := build()
		New(testConfig(), secmem.DesignCosmos()).Warmup(g, n)
		var next [1]memsys.Access
		if trace.NextBlock(g, next[:]) != 1 || next[0] != want[n] {
			t.Fatalf("%s: after Warmup(%d) the stream yields %+v, want access %d = %+v", name, n, next[0], n, want[n])
		}
		trace.CloseIfCloser(g)
	}
}

func TestWarmupImprovesSteadyStateAccuracy(t *testing.T) {
	// With warmup, the measured prediction accuracy excludes the
	// learning transient, so it should be at least as high as without.
	mk := func(warm uint64) float64 {
		s := New(testConfig(), secmem.DesignCosmos())
		gen := trace.NewUniform(region(1<<28, 256<<20), 0, 9, 1)
		if warm > 0 {
			s.Warmup(gen, warm)
		}
		r := s.Run(trace.Limit(gen, 40000), 40000)
		return r.DataPred.Accuracy()
	}
	cold := mk(0)
	warm := mk(40000)
	if warm+0.02 < cold {
		t.Fatalf("warmed accuracy %.3f unexpectedly below cold %.3f", warm, cold)
	}
}

func TestMixedWorkloadRuns(t *testing.T) {
	gen, err := workloads.BuildMix([]string{"mcf", "canneal", "omnetpp", "DLRM"}, workloads.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := New(testConfig(), secmem.DesignCosmos())
	r := s.Run(trace.Limit(gen, 40000), 40000)
	if r.Accesses != 40000 {
		t.Fatalf("mix ran %d accesses", r.Accesses)
	}
	// All four cores must have been exercised.
	busy := 0
	for _, cyc := range s.threadCycles {
		if cyc > 0 {
			busy++
		}
	}
	if busy != 4 {
		t.Fatalf("%d cores busy, want 4", busy)
	}
}

func TestMixRejectsUnknownMember(t *testing.T) {
	if _, err := workloads.BuildMix([]string{"mcf", "nope"}, workloads.Options{}); err == nil {
		t.Fatal("unknown mix member must error")
	}
}

func TestRMCCDesignRuns(t *testing.T) {
	d, err := secmem.DesignByName("RMCC")
	if err != nil {
		t.Fatal(err)
	}
	s := New(testConfig(), d)
	gen := trace.NewZipf(region(1<<28, 256<<20), 1<<18, 0.9, 5, 1)
	r := s.Run(trace.Limit(gen, 60000), 60000)
	if r.CtrAccesses == 0 {
		t.Fatal("RMCC must access counters")
	}
	// On a skewed stream the frequency-retaining metadata cache should
	// not be worse than plain LRU by much; sanity-check it functions.
	if r.CtrMissRate <= 0 || r.CtrMissRate >= 1 {
		t.Fatalf("degenerate RMCC ctr miss rate %v", r.CtrMissRate)
	}
}

func TestSMATBypassFoldsIn(t *testing.T) {
	// With a high bypass share, COSMOS's SMAT should drop below the
	// baseline's on an off-chip-heavy stream.
	mk := func(d secmem.Design) Results {
		s := New(testConfig(), d)
		gen := trace.NewUniform(region(1<<28, 512<<20), 0, 7, 1)
		return s.Run(trace.Limit(gen, 60000), 60000)
	}
	base := mk(secmem.DesignMorph())
	cos := mk(secmem.DesignCosmos())
	if cos.Bypassed == 0 {
		t.Fatal("no bypasses on a uniform off-chip stream")
	}
	if cos.SMAT >= base.SMAT {
		t.Fatalf("COSMOS SMAT %.1f should beat MorphCtr %.1f with %.0f%% bypass",
			cos.SMAT, base.SMAT, 100*float64(cos.Bypassed)/float64(cos.OffChipReads))
	}
}

func TestBoundedSecureRegion(t *testing.T) {
	// With the protected range below all workload addresses, a "secure"
	// design must behave exactly like NP: zero metadata traffic.
	cfg := testConfig()
	cfg.MC.SecureRegionBytes = 4096
	s := New(cfg, secmem.DesignMorph())
	gen := trace.NewUniform(region(1<<28, 64<<20), 10, 3, 1)
	r := s.Run(trace.Limit(gen, 20000), 20000)
	if r.CtrAccesses != 0 || r.Traffic.MTRead != 0 || r.Traffic.MACRead != 0 {
		t.Fatalf("out-of-region accesses generated metadata traffic: %+v", r.Traffic)
	}

	// With the range covering the workload, metadata traffic appears.
	cfg.MC.SecureRegionBytes = 1 << 30
	s2 := New(cfg, secmem.DesignMorph())
	gen2 := trace.NewUniform(region(1<<28, 64<<20), 10, 3, 1)
	r2 := s2.Run(trace.Limit(gen2, 20000), 20000)
	if r2.CtrAccesses == 0 {
		t.Fatal("in-region accesses must be protected")
	}
}

// TestWarmupMeasuresFromWarmClocks checks that measurement after Warmup
// picks up from the warmed clocks: over Warmup(n) then Run(m), each thread's
// measured cycles equal what one continuous n+m run accrues over its last m
// accesses. Clocks rewound to zero would leave the DRAM model's bank and
// channel reservations in the measured run's future, and every early access
// would wait them out.
func TestWarmupMeasuresFromWarmClocks(t *testing.T) {
	const n, m = 30_000, 20_000
	build := func() trace.Generator {
		g, err := workloads.BuildMix([]string{"mcf", "canneal", "omnetpp", "DLRM"}, workloads.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	cont := New(testConfig(), secmem.DesignCosmos())
	g := build()
	stepN := func(k int) {
		var buf [256]memsys.Access
		for k > 0 {
			got := trace.NextBlock(g, buf[:min(k, len(buf))])
			if got == 0 {
				t.Fatal("stream ended early")
			}
			for _, a := range buf[:got] {
				cont.Step(a)
			}
			k -= got
		}
	}
	stepN(n)
	seam := append([]uint64(nil), cont.threadCycles...)
	stepN(m)
	trace.CloseIfCloser(g)

	warm := New(testConfig(), secmem.DesignCosmos())
	wg := build()
	warm.Warmup(wg, n)
	r := warm.Run(trace.Limit(wg, m), m)
	if r.Accesses != m {
		t.Fatalf("measured run has %d accesses, want %d", r.Accesses, m)
	}
	var longest uint64
	for c := range seam {
		want := cont.threadCycles[c] - seam[c]
		if got := warm.measuredCycles(c); got != want {
			t.Errorf("thread %d: %d measured cycles after warmup, continuous run accrued %d", c, got, want)
		}
		longest = max(longest, want)
	}
	if r.Cycles != longest {
		t.Errorf("Results.Cycles = %d, want the longest thread's %d", r.Cycles, longest)
	}
}

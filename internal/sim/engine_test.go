package sim

import (
	"reflect"
	"testing"

	"cosmos/internal/fault"
	"cosmos/internal/memsys"
	"cosmos/internal/secmem"
	"cosmos/internal/trace"
)

// engineConfig shrinks the caches to force writeback traffic.
func engineConfig() Config {
	cfg := testConfig()
	cfg.L1Bytes, cfg.L2Bytes, cfg.LLCBytes = 16<<10, 128<<10, 512<<10
	return cfg
}

// engineRun executes 40,000 accesses of a four-thread interleave of mixed
// patterns, with enough writes that dirty writebacks escape the private
// levels, and returns the Results and the ordered fault violation log.
// block false selects the raw scalar engine (one access decoded and
// stepped at a time, block size 1); true the block-decoded RunContext loop.
func engineRun(cfg Config, design secmem.Design, block bool) (Results, []fault.Event) {
	const accesses = 40_000
	r := memsys.Region{Base: 1 << 28, Size: 64 << 20, Elem: 1}
	gen := trace.Limit(trace.NewInterleave("mix", []trace.Generator{
		trace.NewUniform(r, 40, 11, 1),
		trace.NewZipf(r, 1<<16, 0.9, 7, 2),
		trace.NewSequential(r, 3, 3),
		trace.NewPointerChase(r, 1<<14, 5, 4),
	}, 17), accesses)
	s := New(cfg, design)
	var events []fault.Event
	if in := s.Faults(); in != nil {
		in.Notify = func(ev fault.Event) { events = append(events, ev) }
	}
	if block {
		return s.Run(gen, accesses), events
	}
	var one [1]memsys.Access
	for gen.NextBlock(one[:]) == 1 {
		s.Step(one[0])
	}
	return s.Results(gen.Name()), events
}

// TestEngineEquivalence is the engine property: the scalar engine and the
// block-decoded RunContext loop produce DeepEqual-identical Results for
// every design point, and for the two degenerate hierarchies — all-private
// (no shared level: escaped writebacks drain straight into the terminal)
// and shared-only (no private level).
func TestEngineEquivalence(t *testing.T) {
	type tc struct {
		name   string
		cfg    Config
		design secmem.Design
	}
	var cases []tc
	for _, d := range secmem.AllDesigns() {
		cases = append(cases, tc{d.Name, engineConfig(), d})
	}
	allPrivate, sharedOnly := testConfig(), testConfig()
	allPrivate.Levels = []LevelSpec{
		{Name: "l1", Bytes: 16 << 10, Ways: 2, Lat: 2},
		{Name: "l2", Bytes: 64 << 10, Ways: 4, Lat: 20},
	}
	sharedOnly.Levels = []LevelSpec{{Name: "llc", Bytes: 1 << 20, Ways: 8, Lat: 30, Shared: true}}
	cases = append(cases, tc{"all-private", allPrivate, secmem.DesignCosmos()},
		tc{"shared-only", sharedOnly, secmem.DesignCosmos()})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, _ := engineRun(c.cfg, c.design, false)
			if want.Accesses != 40_000 {
				t.Fatalf("scalar engine ran %d accesses, want 40000", want.Accesses)
			}
			if got, _ := engineRun(c.cfg, c.design, true); !reflect.DeepEqual(want, got) {
				t.Fatalf("block engine diverged from scalar:\nscalar %+v\nblock  %+v", want, got)
			}
		})
	}
}

// TestEngineEquivalenceUnderFaults extends the property to fault campaigns:
// the Results, the fault report and the full ordered violation log must be
// identical across engines — fault draws are a pure function of the global
// access index, which both engines replay in the same order. The crash
// point lands inside a decode block.
func TestEngineEquivalenceUnderFaults(t *testing.T) {
	cfg := engineConfig()
	cfg.Fault = &fault.Config{Seed: 13, Rate: 2e-4, CrashAt: 17_777}
	for _, d := range []secmem.Design{secmem.DesignCosmos(), secmem.DesignMorph()} {
		t.Run(d.Name, func(t *testing.T) {
			want, wantEv := engineRun(cfg, d, false)
			if want.Fault == nil || want.Fault.Injected == 0 {
				t.Fatalf("campaign injected nothing: %+v", want.Fault)
			}
			got, gotEv := engineRun(cfg, d, true)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("block engine diverged under faults:\nscalar %+v\nblock  %+v", want, got)
			}
			if !reflect.DeepEqual(wantEv, gotEv) {
				t.Fatalf("violation log diverged: %d vs %d events", len(wantEv), len(gotEv))
			}
		})
	}
}

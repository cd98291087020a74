package sim

import (
	"reflect"
	"testing"

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
// levels, and returns the Results. block false selects the raw scalar
// engine (one access decoded and stepped at a time, block size 1); true the
// block-decoded RunContext loop.
func engineRun(cfg Config, design secmem.Design, block bool) Results {
	const accesses = 40_000
	r := memsys.Region{Base: 1 << 28, Size: 64 << 20, Elem: 1}
	gen := trace.Limit(trace.NewInterleave("mix", []trace.Generator{
		trace.NewUniform(r, 40, 11, 1),
		trace.NewZipf(r, 1<<16, 0.9, 7, 2),
		trace.NewSequential(r, 3, 3),
		trace.NewPointerChase(r, 1<<14, 5, 4),
	}, 17), accesses)
	s := New(cfg, design)
	if block {
		return s.Run(gen, accesses)
	}
	var one [1]memsys.Access
	for gen.NextBlock(one[:]) == 1 {
		s.Step(one[0])
	}
	return s.Results(gen.Name())
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
			want := engineRun(c.cfg, c.design, false)
			if want.Accesses != 40_000 {
				t.Fatalf("scalar engine ran %d accesses, want 40000", want.Accesses)
			}
			if got := engineRun(c.cfg, c.design, true); !reflect.DeepEqual(want, got) {
				t.Fatalf("block engine diverged from scalar:\nscalar %+v\nblock  %+v", want, got)
			}
		})
	}
}

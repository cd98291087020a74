package main

import (
	"context"
	"testing"

	"cosmos/internal/rl"
	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/trace"
)

// TestReplayMatchesSystem pins the replay to sim.System.Step: a change to
// Step the replay does not mirror fails here by name instead of
// silently skewing the per-layer numbers.
func TestReplayMatchesSystem(t *testing.T) {
	const n = 60_000
	designs := []cell{
		{Design: secmem.DesignNP()},
		{Design: secmem.DesignMorph()},
		{Design: secmem.DesignCosmos()},
		{Design: secmem.DesignCosmos(), Policy: rl.KindPerceptron},
	}
	for _, w := range []string{"mcf", "omnetpp"} {
		for _, c := range designs {
			c.Workload, c.Accesses = w, n
			t.Run(c.label(), func(t *testing.T) {
				gen, err := c.build(canonicalSeed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sim.New(c.config(canonicalSeed), c.Design).RunContext(context.Background(), trace.Limit(gen, n), n)
				if err != nil {
					t.Fatal(err)
				}

				gen, err = c.build(canonicalSeed)
				if err != nil {
					t.Fatal(err)
				}
				tr := newTracer()
				rp := newReplay(c.config(canonicalSeed), c.Design, tr)
				rp.run(gen, n)
				trace.CloseIfCloser(gen)
				if d := firstDiff(want, rp.results(gen.Name())); d != "" {
					t.Fatalf("replay differs from System at %s", d)
				}
				if len(tr.spans) == 0 {
					t.Fatal("replay recorded no spans")
				}

				if rp.eng.CtrPred == nil {
					return
				}
				st, _ := replayObserve(c.config(canonicalSeed).MC.Params, rp.ctrBlocks)
				if st != *want.CtrPred {
					t.Fatalf("isolated Observe replay %+v, engine %+v", st, *want.CtrPred)
				}
			})
		}
	}
}

func TestFirstDiffNamesField(t *testing.T) {
	a := sim.Results{Cycles: 10, Traffic: secmem.Traffic{MTRead: 3}}
	b := a
	if d := firstDiff(a, b); d != "" {
		t.Fatalf("equal results differ at %s", d)
	}
	b.Traffic.MTRead = 4
	if d := firstDiff(a, b); d != "Traffic.MTRead (3 vs 4)" {
		t.Fatalf("firstDiff = %q", d)
	}
}

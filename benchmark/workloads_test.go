package main

import (
	"context"
	"reflect"
	"testing"

	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/trace"
)

// TestSliceTimerSplitsRun: the slice timer hands RunContext the same stream,
// so Results do not change, and splits the run into whole slices plus the
// remainder, each booked in host and reference seconds.
func TestSliceTimerSplitsRun(t *testing.T) {
	const n = 2*timedSlice + 1000
	c := cell{Workload: "omnetpp", Design: secmem.DesignCosmos(), Accesses: n}
	run := func(wrap func(trace.Generator) trace.Generator) sim.Results {
		gen, err := c.build(canonicalSeed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.New(c.config(canonicalSeed), c.Design).RunContext(context.Background(), wrap(trace.Limit(gen, n)), n)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(func(g trace.Generator) trace.Generator { return g })
	var st *sliceTimer
	got := run(func(g trace.Generator) trace.Generator {
		st = newSliceTimer(g)
		return st
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Results through the slice timer differ at %s", firstDiff(want, got))
	}
	if c := st.finish(); c.Laps != 3 || c.Wall <= 0 || c.Ref <= 0 {
		t.Fatalf("%d accesses booked as %+v, want 3 slices of positive time", n, c)
	}
}

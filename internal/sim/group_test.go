package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cosmos/internal/rl"
	"cosmos/internal/secmem"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

// groupAccesses ends on a partial pipeline block.
const groupAccesses = 150_321

// groupGen builds a workload stream of groupAccesses with one thread per
// core.
func groupGen(t *testing.T, workload string, cores int) trace.Generator {
	t.Helper()
	gen, err := workloads.Build(workload, workloads.Options{Threads: cores, Seed: 42, GraphNodes: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	return trace.Limit(gen, groupAccesses)
}

// groupPoint is one member's design point.
type groupPoint struct {
	name   string
	cfg    Config
	design secmem.Design
}

// groupPoints lists every registry design on machine, then COSMOS with
// perceptron and with MLP predictors, and MorphCtr with a 64KB counter
// cache.
func groupPoints(machine Config) []groupPoint {
	var pts []groupPoint
	for _, name := range secmem.DesignNames() {
		d, _ := secmem.DesignByName(name)
		pts = append(pts, groupPoint{name, machine, d})
	}
	for _, kind := range []string{rl.KindPerceptron, rl.KindMLP} {
		cfg := machine
		cfg.MC.Params.DataPolicy = &rl.PolicySpec{Kind: kind}
		cfg.MC.Params.CtrPolicy = &rl.PolicySpec{Kind: kind}
		pts = append(pts, groupPoint{"COSMOS/" + kind, cfg, secmem.DesignCosmos()})
	}
	small := secmem.DesignMorph()
	small.CtrCacheBytes = 64 << 10
	return append(pts, groupPoint{"MorphCtr/ctr64k", machine, small})
}

// newGroup builds the points' systems: the first walks, the rest are its
// members.
func newGroup(pts []groupPoint) []*System {
	w := New(pts[0].cfg, pts[0].design)
	systems := []*System{w}
	for _, p := range pts[1:] {
		systems = append(systems, w.Member(p.cfg, p.design))
	}
	return systems
}

// TestGroupMatchesSolo: every member of a group run, timed on the caller or
// on a helper, gets the Results of its own RunContext over the stream, on
// the 4-core machine and on the 8-core one (over the pipeline tests'
// longer stream, which its larger LLC needs to write back dirty lines).
func TestGroupMatchesSolo(t *testing.T) {
	for _, tc := range []struct {
		machine Config
		gen     func(t *testing.T) trace.Generator
		n       uint64
	}{
		{DefaultConfig(), func(t *testing.T) trace.Generator { return groupGen(t, "mcf", 4) }, groupAccesses},
		{EightCore(), func(t *testing.T) trace.Generator { return pipeGen(t, "mcf") }, pipeAccesses},
	} {
		t.Run(fmt.Sprintf("%dcore", tc.machine.Cores), func(t *testing.T) {
			pts := groupPoints(tc.machine)
			got, errs := RunGroup(context.Background(), tc.gen(t), tc.n, newGroup(pts), 2)
			writes := false
			for i, p := range pts {
				if errs[i] != nil {
					t.Fatalf("%s: %v", p.name, errs[i])
				}
				want, err := New(p.cfg, p.design).RunContext(context.Background(), tc.gen(t), tc.n)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, p.name, got[i], want)
				writes = writes || want.Traffic.DataWrite > 0
			}
			if !writes {
				t.Fatal("stream made no writebacks; the victim replay is untested")
			}
		})
	}
}

// TestGroupTimingPanicFailsOneMember: a panic in one member's timing half
// fails that member alone, and the others still match their solo runs.
func TestGroupTimingPanicFailsOneMember(t *testing.T) {
	pts := groupPoints(DefaultConfig())[:4]
	systems := newGroup(pts)
	// Thread clocks for one core: the first access of another core panics.
	systems[2].threadCycles = systems[2].threadCycles[:1]
	got, errs := RunGroup(context.Background(), groupGen(t, "mcf", 4), groupAccesses, systems, 1)
	var tp *TimingPanic
	if !errors.As(errs[2], &tp) || len(tp.Stack) == 0 {
		t.Fatalf("member 2: err = %v, want a *TimingPanic with its stack", errs[2])
	}
	for _, i := range []int{0, 1, 3} {
		if errs[i] != nil {
			t.Fatalf("%s: %v", pts[i].name, errs[i])
		}
		want := New(pts[i].cfg, pts[i].design).Run(groupGen(t, "mcf", 4), groupAccesses)
		sameResults(t, pts[i].name, got[i], want)
	}
}

// TestGroupCancelMatchesSerial: a group cancelled mid-way returns every
// member's partial Results with ctx.Err(), each that of a serial loop over
// as many accesses.
func TestGroupCancelMatchesSerial(t *testing.T) {
	const at = 3*CancelCheckEvery + 100
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pts := groupPoints(DefaultConfig())[:5]
	gen := &cancelAfter{Generator: groupGen(t, "ResNet", 4), n: at, cancel: cancel}
	got, errs := RunGroup(ctx, gen, groupAccesses, newGroup(pts), 1)
	for i, p := range pts {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", p.name, errs[i])
		}
		if got[i].Accesses < at || got[i].Accesses > at+CancelCheckEvery {
			t.Fatalf("%s stopped at %d accesses, want within %d of %d", p.name, got[i].Accesses, CancelCheckEvery, at)
		}
		sameResults(t, p.name, got[i], serialRun(New(p.cfg, p.design), groupGen(t, "ResNet", 4), got[i].Accesses))
	}
}

// TestGroupJoinsHelpers: a walk panic is raised on the caller, and neither
// it nor the end of a run leaves the worker or a helper behind.
func TestGroupJoinsHelpers(t *testing.T) {
	for _, broken := range []bool{false, true} {
		systems := newGroup(groupPoints(DefaultConfig())[:4])
		if broken {
			systems[0].coreOf[0] = 200 // no such core: walk panics
		}
		base := runtime.NumGoroutine()
		var p any
		func() {
			defer func() { p = recover() }()
			RunGroup(context.Background(), groupGen(t, "mcf", 4), groupAccesses, systems, 3)
		}()
		if (p != nil) != broken {
			t.Fatalf("broken walk %v: recovered %v", broken, p)
		}
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("broken walk %v: %d goroutines after the run, %d before", broken, n, base)
		}
	}
}

// TestMemberRejectsOtherMachine: a member must share the walker's cores and
// on-chip levels; its secure-memory side may differ.
func TestMemberRejectsOtherMachine(t *testing.T) {
	w := New(DefaultConfig(), secmem.DesignNP())
	for name, cfg := range map[string]Config{"8 cores": EightCore(), "bigger L2": func() Config {
		c := DefaultConfig()
		c.L2Bytes *= 2
		return c
	}()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Member accepted a different machine", name)
				}
			}()
			w.Member(cfg, secmem.DesignCosmos())
		}()
	}
	cfg := DefaultConfig()
	cfg.MC.CtrCacheBytes *= 2
	w.Member(cfg, secmem.DesignMorph())
}

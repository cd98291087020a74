package sim

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cosmos/internal/cache"
	"cosmos/internal/memsys"
	"cosmos/internal/secmem"
	"cosmos/internal/telemetry"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

// pipeAccesses is long enough for the 8-core machine's LLC to evict dirty
// lines on both test workloads, and ends on a partial pipeline block.
const pipeAccesses = 400_321

// pipeGen builds a workload stream for the pipeline tests.
func pipeGen(t *testing.T, workload string) trace.Generator {
	t.Helper()
	gen, err := workloads.Build(workload, workloads.Options{Threads: 8, Seed: 42, GraphNodes: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	return trace.Limit(gen, pipeAccesses)
}

// serialRun is the reference the pipeline must reproduce: Step on every
// access of gen, up to n, in stream order. With a sampler attached it
// samples after every access, and with phases it books each access before
// sampling, so rows land where RunContext's do.
func serialRun(s *System, gen trace.Generator, n uint64) Results {
	var buf [64]memsys.Access
	for s.accesses < n {
		m := gen.NextBlock(buf[:min(n-s.accesses, uint64(len(buf)))])
		if m == 0 {
			break
		}
		for _, a := range buf[:m] {
			s.Step(a)
			if s.phases != nil {
				s.phases.AddAccesses(1)
			}
			if s.sampler != nil {
				s.sampler.MaybeSample(s.accesses)
			}
		}
	}
	if s.sampler != nil {
		s.sampler.Flush(s.accesses)
	}
	return s.Results(gen.Name())
}

func sameResults(t *testing.T, label string, got, want Results) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: pipeline Results differ from the serial Step loop:\npipeline: %+v\nserial:   %+v", label, got, want)
	}
}

// TestPipelineMatchesSerial: RunContext's two-stage pipeline gives the
// Results of a serial Step loop, bit for bit, for every design, on a
// graph workload and on a writeback-heavy one, on the 8-core machine.
func TestPipelineMatchesSerial(t *testing.T) {
	for _, wl := range []string{"mcf", "ResNet"} {
		for _, d := range secmem.AllDesigns() {
			t.Run(wl+"/"+d.Name, func(t *testing.T) {
				got, err := New(EightCore(), d).RunContext(context.Background(), pipeGen(t, wl), pipeAccesses)
				if err != nil {
					t.Fatal(err)
				}
				want := serialRun(New(EightCore(), d), pipeGen(t, wl), pipeAccesses)
				if want.Traffic.DataWrite == 0 {
					t.Fatal("stream made no writebacks; the victim replay is untested")
				}
				sameResults(t, wl+"/"+d.Name, got, want)
			})
		}
	}
}

// sampledRows runs COSMOS/ResNet with a sampler (and the perf phases
// registered into it) over an interval that does not divide the block size,
// returning the JSONL rows with the host-time perf fields removed.
func sampledRows(t *testing.T, pipeline bool) []map[string]any {
	t.Helper()
	s := New(EightCore(), secmem.DesignCosmos())
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg.Root())
	ph := telemetry.NewPhases()
	ph.RegisterMetrics(reg.Root().Scope("perf"))
	s.AttachPhases(ph)
	var out strings.Builder
	sp, err := telemetry.NewSampler(reg, telemetry.SamplerConfig{Interval: 7_000, JSONL: &out})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachSampler(sp)
	if pipeline {
		if _, err := s.RunContext(context.Background(), pipeGen(t, "ResNet"), pipeAccesses); err != nil {
			t.Fatal(err)
		}
	} else {
		serialRun(s, pipeGen(t, "ResNet"), pipeAccesses)
	}
	var rows []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatal(err)
		}
		for k := range row {
			if strings.HasPrefix(k, "perf.") && k != "perf.simulated_accesses" {
				delete(row, k)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// TestPipelineSampledRowsMatchSerial: every interval row of a pipelined
// run equals the serial loop's, host-time fields aside; the simulated
// access count booked to the phases is the timed accesses at the row.
func TestPipelineSampledRowsMatchSerial(t *testing.T) {
	got, want := sampledRows(t, true), sampledRows(t, false)
	if len(got) != len(want) || len(want) != pipeAccesses/7_000+1 {
		t.Fatalf("pipeline wrote %d rows, serial %d, want %d", len(got), len(want), pipeAccesses/7_000+1)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("row %d differs:\npipeline: %v\nserial:   %v", i, got[i], want[i])
		}
		if got[i]["perf.simulated_accesses"] != got[i]["delta"] {
			t.Errorf("row %d books %v simulated accesses over an interval of %v",
				i, got[i]["perf.simulated_accesses"], got[i]["delta"])
		}
	}
}

// TestPipelineSpansMatchSerial: with span sampling on, the tail report and
// the kept span trees are the serial loop's.
func TestPipelineSpansMatchSerial(t *testing.T) {
	run := func(pipeline bool) (Results, []byte) {
		s := New(EightCore(), secmem.DesignCosmos())
		rec := telemetry.NewSpanRecorder(64, 8)
		s.AttachSpans(rec)
		var r Results
		if pipeline {
			var err error
			if r, err = s.RunContext(context.Background(), pipeGen(t, "mcf"), pipeAccesses); err != nil {
				t.Fatal(err)
			}
		} else {
			r = serialRun(s, pipeGen(t, "mcf"), pipeAccesses)
		}
		top, err := json.Marshal(rec.TopSpans())
		if err != nil {
			t.Fatal(err)
		}
		return r, top
	}
	got, gotTop := run(true)
	want, wantTop := run(false)
	if got.Tail == nil {
		t.Fatal("no tail report with a span recorder attached")
	}
	sameResults(t, "spans", got, want)
	if string(gotTop) != string(wantTop) {
		t.Error("pipeline kept different span trees than the serial loop")
	}
}

// cancelAfter cancels a context once its generator has handed out n
// accesses, mid-run.
type cancelAfter struct {
	trace.Generator
	n, seen uint64
	cancel  context.CancelFunc
}

func (g *cancelAfter) NextBlock(dst []memsys.Access) int {
	m := g.Generator.NextBlock(dst)
	if g.seen += uint64(m); g.seen >= g.n {
		g.cancel()
	}
	return m
}

// TestPipelineCancelMatchesSerial: a run cancelled mid-way returns the
// Results of a serial loop over as many accesses as it reports, within
// CancelCheckEvery of the cancellation.
func TestPipelineCancelMatchesSerial(t *testing.T) {
	const at = 3*CancelCheckEvery + 100
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := secmem.DesignCosmos()
	gen := &cancelAfter{Generator: pipeGen(t, "ResNet"), n: at, cancel: cancel}
	got, err := New(EightCore(), d).RunContext(ctx, gen, pipeAccesses)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got.Accesses < at || got.Accesses > at+CancelCheckEvery {
		t.Fatalf("cancelled after %d accesses, stopped at %d, want within %d", at, got.Accesses, CancelCheckEvery)
	}
	sameResults(t, "cancelled", got, serialRun(New(EightCore(), d), pipeGen(t, "ResNet"), got.Accesses))
}

// badVictim is a replacement policy that picks an impossible way, so the
// first eviction from its cache panics inside walk.
type badVictim struct{}

func (badVictim) Name() string                          { return "bad-victim" }
func (badVictim) Reset(sets, ways int)                  {}
func (badVictim) OnHit(set, way int, ev cache.Event)    {}
func (badVictim) OnInsert(set, way int, ev cache.Event) {}
func (badVictim) OnEvict(set, way int)                  {}
func (badVictim) Victim(set int) int                    { return -1 }

// TestPipelineJoinsWorker: RunContext leaves no goroutine behind, whether
// the run ends, is cancelled, hits a damaged stream, or panics in walk —
// and that panic is raised on the caller, where a runner can recover it.
func TestPipelineJoinsWorker(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		gen   func() trace.Generator
		setup func(s *System)
	}{
		{name: "end", ctx: context.Background(), gen: func() trace.Generator { return pipeGen(t, "mcf") }},
		{name: "cancel", ctx: cancelled, gen: func() trace.Generator { return pipeGen(t, "mcf") }},
		{name: "damaged trace", ctx: context.Background(), gen: func() trace.Generator {
			g, err := trace.OpenFile(halfCutTrace(t, 100_000))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{name: "walk panic", ctx: context.Background(), gen: func() trace.Generator { return pipeGen(t, "mcf") },
			setup: func(s *System) {
				sp := s.specs[0]
				s.chains[0][0] = cache.NewLevel(cache.New(sp.Name, sp.Bytes, sp.Ways, badVictim{}), sp.Lat, s.chains[0][1])
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen := tc.gen()
			s := New(EightCore(), secmem.DesignCosmos())
			if tc.setup != nil {
				tc.setup(s)
			}
			base := runtime.NumGoroutine()
			var p any
			func() {
				defer func() { p = recover() }()
				s.RunContext(tc.ctx, gen, pipeAccesses)
			}()
			if want := tc.setup != nil; (p != nil) != want {
				t.Fatalf("recovered %v on the caller, want a panic: %v", p, want)
			}
			// The worker was joined; it may still be finishing its exit.
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%d goroutines after the run, %d before", n, base)
			}
		})
	}
}

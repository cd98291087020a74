package runner

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

// goid returns the calling goroutine's id, from its stack header.
func goid() string {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	return string(b[:bytes.IndexByte(b, ' ')])
}

// fig10Specs are the five cells Fig 10 asks for on one workload.
func fig10Specs() []Spec {
	var specs []Spec
	for _, d := range []secmem.Design{secmem.DesignNP(), secmem.DesignMorph(),
		secmem.DesignCosmosDP(), secmem.DesignCosmosCP(), secmem.DesignCosmos()} {
		specs = append(specs, Spec{Workload: "mcf", Design: d, Cores: 4, Accesses: 20_000, Seed: 42})
	}
	return specs
}

// countBuilds counts the workload streams the runner builds until the test
// ends.
func countBuilds(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	build := buildWorkload
	buildWorkload = func(name string, opts workloads.Options) (trace.Generator, error) {
		n.Add(1)
		return build(name, opts)
	}
	t.Cleanup(func() { buildWorkload = build })
	return &n
}

// TestRunAllGroupsOneWalk: with a slot for each, Fig 10's five cells on one
// workload build the stream once and run as one group; they store five
// entries under their own spec keys, each the Results of the cell run
// alone, and every transition is emitted on the goroutine that called
// RunAll.
func TestRunAllGroupsOneWalk(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := New(Options{Workers: 5, Store: st})
	var (
		mu          sync.Mutex
		transitions = map[Phase]int{}
		elsewhere   int
	)
	caller := goid()
	o.Lifecycle = func(tr Transition) {
		mu.Lock()
		defer mu.Unlock()
		transitions[tr.Phase]++
		if goid() != caller {
			elsewhere++
		}
	}
	builds := countBuilds(t)
	specs := fig10Specs()
	if err := o.RunAll(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 1 {
		t.Errorf("built the stream %d times, want once", builds.Load())
	}
	if want := (map[Phase]int{PhaseQueued: 5, PhaseRunning: 5, PhaseDone: 5}); !reflect.DeepEqual(transitions, want) {
		t.Errorf("transitions %v, want %v", transitions, want)
	}
	if elsewhere != 0 {
		t.Errorf("%d transitions emitted off the calling goroutine", elsewhere)
	}
	if s := o.Stats(); s.Executed != 5 {
		t.Errorf("stats %+v, want 5 executed", s)
	}

	var stored, want []string
	for _, e := range st.Index() {
		stored = append(stored, e.Key)
	}
	for _, sp := range specs {
		want = append(want, sp.Key())
	}
	sort.Strings(stored)
	sort.Strings(want)
	if !reflect.DeepEqual(stored, want) {
		t.Fatalf("stored keys %v, want the specs' keys %v", stored, want)
	}
	solo := New(Options{Workers: 1})
	for _, sp := range specs {
		got, ok := st.Get(context.Background(), sp.Key())
		if !ok {
			t.Fatalf("%s not stored", sp.DisplayLabel())
		}
		alone, err := solo.Run(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, alone) {
			t.Errorf("%s: grouped Results differ from the cell run alone", sp.DisplayLabel())
		}
	}
}

// TestRunAllChunksAtWorkers: a group larger than membersPerSlot×Workers
// runs in the fewest chunks of at most that many members, of even sizes,
// one stream build each, so no more systems are alive at once.
func TestRunAllChunksAtWorkers(t *testing.T) {
	specs := fig10Specs()
	for workers := 1; workers <= 3; workers++ {
		o := New(Options{Workers: workers})
		builds := countBuilds(t)
		if err := o.RunAll(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
		most := membersPerSlot * workers
		if want := int64((len(specs) + most - 1) / most); builds.Load() != want {
			t.Errorf("%d workers: built the stream %d times, want %d", workers, builds.Load(), want)
		}
		if s := o.Stats(); s.Executed != uint64(len(specs)) {
			t.Errorf("%d workers: stats %+v, want %d executed", workers, s, len(specs))
		}
	}
}

// TestRunAllRunsChunksConcurrently: cells that share no walk still run
// Workers at a time, each on its own slot: every run waits in Instrument
// until the other has started. Their transitions are all emitted on the
// goroutine that called RunAll.
func TestRunAllRunsChunksConcurrently(t *testing.T) {
	o := New(Options{Workers: 2})
	caller, elsewhere := goid(), 0
	o.Lifecycle = func(Transition) {
		if goid() != caller {
			elsewhere++
		}
	}
	var (
		started sync.WaitGroup
		timeout = time.After(time.Minute)
		both    = make(chan struct{})
	)
	started.Add(2)
	go func() {
		started.Wait()
		close(both)
	}()
	o.Instrument = func(string, *sim.System) func() {
		started.Done()
		select {
		case <-both:
		case <-timeout:
			t.Error("the two runs never ran at once")
		}
		return nil
	}
	specs := fig10Specs()[:2]
	specs[1].Seed++ // another stream
	if err := o.RunAll(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if elsewhere != 0 {
		t.Errorf("%d transitions emitted off the calling goroutine", elsewhere)
	}
}

// TestRunAllGroupFailures: an invalid spec, or one whose system panics
// while it is built, fails alone within its group; a duplicate follows its
// leader; and a stream that cannot be built fails every cell of its group.
func TestRunAllGroupFailures(t *testing.T) {
	o := New(Options{Workers: 8})
	specs := fig10Specs()
	bad := specs[1]
	bad.Design.Name = "" // same walk, fails validation
	bogus := specs[1]
	bogus.Design.CtrPrefetcher = "bogus" // same walk, panics in the engine
	bogus.Label = "bogus"
	specs = append(specs[:1], append([]Spec{bogus}, specs[1:]...)...)
	specs = append(specs, bad, specs[0])
	for _, d := range []secmem.Design{secmem.DesignNP(), secmem.DesignCosmos()} {
		specs = append(specs, Spec{Workload: "no-such-workload", Design: d, Accesses: 1000})
	}
	failed := map[string]error{}
	o.Lifecycle = func(tr Transition) {
		if tr.Phase == PhaseDone && tr.Err != nil {
			failed[tr.Label] = tr.Err
		}
	}
	builds := countBuilds(t)
	if err := o.RunAll(context.Background(), specs); err == nil {
		t.Fatal("RunAll must surface the failing specs")
	}
	s := o.Stats()
	if s.Executed != 5 || s.Deduplicated != 1 || s.Failed != 4 {
		t.Fatalf("stats %+v, want 5 executed, 1 deduplicated, 4 failed", s)
	}
	if builds.Load() != 2 {
		t.Errorf("built %d streams, want 2 (one per group)", builds.Load())
	}
	var pe *PanicError
	if err := failed["bogus"]; !errors.As(err, &pe) || pe.Label != "bogus" {
		t.Errorf("the bogus prefetcher's cell failed with %v, want its own *PanicError", err)
	}
	if len(failed) != 4 {
		t.Errorf("failed cells %v, want the bogus, the invalid and the two unbuildable", failed)
	}
}

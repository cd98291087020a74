package runner

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cosmos/internal/telemetry"
)

// transitionLog collects Lifecycle transitions thread-safely.
type transitionLog struct {
	mu sync.Mutex
	ts []Transition
}

func (l *transitionLog) observe(t Transition) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ts = append(l.ts, t)
}

func (l *transitionLog) phases() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.ts))
	for i, t := range l.ts {
		out[i] = t.Phase.String() + "/" + t.Source.String()
	}
	return out
}

func TestLifecycleExecutedThenMemoised(t *testing.T) {
	o := New(Options{Workers: 1})
	var lg transitionLog
	o.Lifecycle = lg.observe

	if _, err := o.Run(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Run(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}

	got := lg.phases()
	want := []string{
		"queued/executed", // Source is zero-valued before Done
		"running/executed",
		"done/executed",
		"done/memoised",
	}
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}

	lg.mu.Lock()
	exec := lg.ts[2]
	lg.mu.Unlock()
	if exec.Key == "" || exec.Label != "mcf_COSMOS" || exec.ExecTime <= 0 {
		t.Fatalf("executed Done transition = %+v", exec)
	}
}

func TestLifecycleDedupFollower(t *testing.T) {
	o := New(Options{Workers: 1})
	var lg transitionLog
	o.Lifecycle = lg.observe

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := o.Run(context.Background(), testSpec()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	var done, dedup int
	for _, p := range lg.phases() {
		if strings.HasPrefix(p, "done/") {
			done++
		}
		if p == "done/deduplicated" {
			dedup++
		}
	}
	// Every request terminates exactly once; followers (if any coalesced)
	// emit only a bare Done.
	if done != 3 {
		t.Fatalf("done transitions = %d, want 3 (%v)", done, lg.phases())
	}
	st := o.Stats()
	if uint64(dedup) != st.Deduplicated {
		t.Fatalf("dedup transitions = %d, stats say %d", dedup, st.Deduplicated)
	}
}

func TestLifecycleFailurePhases(t *testing.T) {
	o := New(Options{Workers: 1})
	var lg transitionLog
	o.Lifecycle = lg.observe
	sp := testSpec()
	sp.Workload = "no-such-workload"
	if _, err := o.Run(context.Background(), sp); err == nil {
		t.Fatal("want error")
	}
	got := lg.phases()
	last := got[len(got)-1]
	if last != "done/executed" {
		t.Fatalf("terminal transition = %q (%v)", last, got)
	}
	lg.mu.Lock()
	if lg.ts[len(lg.ts)-1].Err == nil {
		t.Fatal("terminal transition must carry the error")
	}
	lg.mu.Unlock()
	// A failing leader ends once: one PhaseDone, one Failed.
	done := 0
	for _, p := range got {
		if strings.HasPrefix(p, "done/") {
			done++
		}
	}
	if st := o.Stats(); done != 1 || st.Failed != 1 {
		t.Fatalf("failing leader: %d done transitions, Failed = %d; want 1 and 1 (%v)", done, st.Failed, got)
	}
}

func TestStoreCountersThroughOrchestrator(t *testing.T) {
	dir := t.TempDir()
	store1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o1 := New(Options{Workers: 1, Store: store1})
	if _, err := o1.Run(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}
	if h, m, c := store1.Counters(); h != 0 || m != 1 || c != 0 {
		t.Fatalf("first run counters = %d/%d/%d, want 0/1/0", h, m, c)
	}

	// A fresh orchestrator over the same dir restores from disk: one hit.
	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o2 := New(Options{Workers: 1, Store: store2})
	if _, err := o2.Run(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}
	if h, m, c := store2.Counters(); h != 1 || m != 0 || c != 0 {
		t.Fatalf("resume counters = %d/%d/%d, want 1/0/0", h, m, c)
	}

	// Truncate the record: the next process sees a corrupt file, counts it
	// and recomputes.
	key := testSpec().normalized().Key()
	path := filepath.Join(dir, "runs", key+".json")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	store3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o3 := New(Options{Workers: 1, Store: store3})
	if _, err := o3.Run(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}
	if h, m, c := store3.Counters(); h != 0 || c != 1 {
		t.Fatalf("corrupt counters = %d/%d/%d, want 0 hits, 1 corrupt", h, m, c)
	}
	if st := o3.Stats(); st.Executed != 1 {
		t.Fatalf("corrupt record must recompute, stats = %+v", st)
	}
}

func TestRegisterMetricsStoreScope(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := New(Options{Workers: 1, Store: store})
	reg := telemetry.NewRegistry()
	o.RegisterMetrics(reg.Root())

	if _, err := o.Run(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Run(context.Background(), testSpec()); err != nil { // memo hit
		t.Fatal(err)
	}

	want := map[string]uint64{
		"runner.store.memo_hits":          1,
		"runner.store.hits":               0,
		"runner.store.misses":             1,
		"runner.store.corrupt_recomputed": 0,
		"runner.runs_executed":            1,
	}
	got := map[string]uint64{}
	for _, s := range reg.Snapshot() {
		got[s.Name] = s.Counter
	}
	for name, v := range want {
		cur, ok := got[name]
		if !ok {
			t.Errorf("metric %s not registered", name)
			continue
		}
		if cur != v {
			t.Errorf("%s = %d, want %d", name, cur, v)
		}
	}
}

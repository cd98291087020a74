package trace

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cosmos/internal/memsys"
)

func region(size uint64) memsys.Region {
	return memsys.Region{Name: "r", Base: 1 << 20, Size: size, Elem: 1}
}

func TestSequentialWrapsAndWrites(t *testing.T) {
	g := NewSequential(region(64*4), 4, 9)
	got := take(g, 8)
	if len(got) != 8 {
		t.Fatalf("sequential should be endless, got %d", len(got))
	}
	for i, a := range got {
		wantAddr := memsys.Addr(1<<20 + (i%4)*64)
		if a.Addr != wantAddr {
			t.Fatalf("access %d addr %#x, want %#x", i, uint64(a.Addr), uint64(wantAddr))
		}
		if a.Region != 9 {
			t.Fatal("region tag lost")
		}
	}
	writes := 0
	for _, a := range got {
		if a.Type == memsys.Write {
			writes++
		}
	}
	if writes != 2 {
		t.Fatalf("writeEvery=4 over 8 accesses: %d writes, want 2", writes)
	}
}

func TestLimit(t *testing.T) {
	g := Limit(NewSequential(region(64*100), 0, 0), 10)
	if got := take(g, 1000); len(got) != 10 {
		t.Fatalf("Limit(10) yielded %d", len(got))
	}
	if len(take(g, 1)) != 0 {
		t.Fatal("exhausted limit must stay exhausted")
	}
}

func TestUniformStaysInRegion(t *testing.T) {
	r := region(64 * 128)
	g := NewUniform(r, 30, 42, 0)
	writes := 0
	got := take(g, 5000)
	if len(got) != 5000 {
		t.Fatal("uniform must be endless")
	}
	for _, a := range got {
		if !r.Contains(a.Addr) {
			t.Fatalf("address %#x outside region", uint64(a.Addr))
		}
		if uint64(a.Addr)%64 != 0 {
			t.Fatal("unaligned access")
		}
		if a.Type == memsys.Write {
			writes++
		}
	}
	if writes < 1200 || writes > 1800 {
		t.Fatalf("writePct=30: %d/5000 writes", writes)
	}
}

func TestUniformDeterminism(t *testing.T) {
	r := region(64 * 64)
	a := take(NewUniform(r, 0, 7, 0), 100)
	b := take(NewUniform(r, 0, 7, 0), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := region(64 * 1024)
	g := NewZipf(r, 1024, 0.99, 3, 0)
	counts := map[memsys.Addr]int{}
	const n = 50000
	for _, a := range take(g, n) {
		if !r.Contains(a.Addr) {
			t.Fatalf("zipf escaped region: %#x", uint64(a.Addr))
		}
		counts[a.Addr]++
	}
	// The most popular line should dominate: >2% of accesses with
	// theta=0.99 over 1024 items (expected ≈13%).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/n < 0.02 {
		t.Fatalf("zipf max share %.4f, want skewed", float64(max)/n)
	}
	if len(counts) < 100 {
		t.Fatalf("zipf touched only %d distinct lines — tail missing", len(counts))
	}
}

func TestPointerChaseVisitsEverything(t *testing.T) {
	const n = 256
	r := region(64 * n)
	g := NewPointerChase(r, n, 11, 0)
	seen := map[memsys.Addr]bool{}
	for _, a := range take(g, n) {
		seen[a.Addr] = true
	}
	// Sattolo permutation is a single cycle: n steps visit n lines.
	if len(seen) != n {
		t.Fatalf("cycle visited %d/%d lines", len(seen), n)
	}
	// And then repeats the same cycle.
	if take(NewPointerChase(r, n, 11, 0), 1)[0] != take(g, 1)[0] {
		t.Fatal("cycle must repeat deterministically")
	}
}

func TestInterleaveRoundRobin(t *testing.T) {
	mk := func(base uint64) Generator {
		return Limit(NewSequential(memsys.Region{Base: memsys.Addr(base), Size: 64 * 1000, Elem: 1}, 0, 0), 6)
	}
	iv := NewInterleave("mix", []Generator{mk(0), mk(1 << 30)}, 2)
	got := take(iv, 100)
	if len(got) != 12 {
		t.Fatalf("merged %d accesses, want 12", len(got))
	}
	// chunk=2: threads alternate in pairs, thread IDs stamped.
	wantThreads := []uint8{0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1}
	for i, a := range got {
		if a.Thread != wantThreads[i] {
			t.Fatalf("access %d thread %d, want %d", i, a.Thread, wantThreads[i])
		}
	}
}

func TestInterleaveSurvivesUnevenStreams(t *testing.T) {
	short := Limit(NewSequential(region(64*10), 0, 0), 3)
	long := Limit(NewSequential(region(64*10), 0, 0), 9)
	iv := NewInterleave("mix", []Generator{short, long}, 2)
	got := take(iv, 100)
	if len(got) != 12 {
		t.Fatalf("merged %d, want 12", len(got))
	}
	// Tail must be all thread 1 after thread 0 is exhausted.
	for _, a := range got[6:] {
		if a.Thread != 1 {
			t.Fatalf("after exhaustion only thread 1 should run, got t%d", a.Thread)
		}
	}
}

func TestFromFuncStreams(t *testing.T) {
	g := FromFunc("push", func(emit func(memsys.Access)) {
		for i := 0; i < 10000; i++ {
			emit(memsys.Access{Addr: memsys.Addr(i * 64)})
		}
	})
	got := take(g, 20000)
	if len(got) != 10000 {
		t.Fatalf("got %d accesses", len(got))
	}
	for i, a := range got {
		if a.Addr != memsys.Addr(i*64) {
			t.Fatalf("order broken at %d", i)
		}
	}
	if len(take(g, 1)) != 0 {
		t.Fatal("exhausted FromFunc must report eof")
	}
}

func TestFromFuncCloseCancels(t *testing.T) {
	g := FromFunc("endless", func(emit func(memsys.Access)) {
		for i := uint64(0); ; i++ {
			emit(memsys.Access{Addr: memsys.Addr(i)})
			if i > 1<<22 {
				return // safety: cancellation must kick in long before
			}
		}
	})
	if len(take(g, 1)) != 1 {
		t.Fatal("first access should arrive")
	}
	CloseIfCloser(g) // must not deadlock
	if len(take(g, 1)) != 0 {
		t.Fatal("closed generator must be exhausted")
	}
}

// countingProgram is an endless FromFunc workload that counts the
// accesses it has emitted.
func countingProgram(emitted *atomic.Int64) func(emit func(memsys.Access)) {
	return func(emit func(memsys.Access)) {
		for i := uint64(0); i < 1<<24; i++ {
			emitted.Add(1)
			emit(memsys.Access{Addr: memsys.Addr(i)})
		}
	}
}

// TestFromFuncRunAhead: the producer fills a batch only when the consumer
// asks for one, so a paused consumer holds the program at most two batches
// ahead of what it has taken.
func TestFromFuncRunAhead(t *testing.T) {
	var emitted atomic.Int64
	g := FromFunc("counting", countingProgram(&emitted))
	defer CloseIfCloser(g)
	buf := make([]memsys.Access, 100)
	taken := 0
	for _, k := range []int{1, 1000, producerBatch, 5000, 20000} {
		for taken < k {
			want := k - taken
			if want > len(buf) {
				want = len(buf)
			}
			taken += NextBlock(g, buf[:want])
		}
		time.Sleep(20 * time.Millisecond) // let an eager producer run ahead
		if got := emitted.Load(); got > int64(taken+2*producerBatch) {
			t.Fatalf("after taking %d accesses the program emitted %d, want at most %d",
				taken, got, taken+2*producerBatch)
		}
	}
}

// TestFromFuncCloseLeaksNoGoroutine: closing a started producer that is
// blocked waiting for a drained buffer unwinds its goroutine.
func TestFromFuncCloseLeaksNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	var emitted atomic.Int64
	g := FromFunc("counting", countingProgram(&emitted))
	if len(take(g, 1)) != 1 {
		t.Fatal("first access should arrive")
	}
	// Both buffers filled: the producer now waits for the consumer.
	for emitted.Load() < 2*producerBatch {
		time.Sleep(time.Millisecond)
	}
	CloseIfCloser(g)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the producer started",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseIfCloserOnPlainGenerator(t *testing.T) {
	// Sequential does not implement Closer — must be a no-op, not a panic.
	CloseIfCloser(NewSequential(region(64), 0, 0))
}

func TestConcatChainsPhases(t *testing.T) {
	mk := func() Generator {
		return Concat("mcf,DFS",
			Limit(NewSequential(region(64*100), 0, 0), 5),
			Limit(NewSequential(memsys.Region{Name: "r2", Base: 1 << 24, Size: 64 * 100, Elem: 1}, 0, 0), 5),
		)
	}
	g := mk()
	if g.Name() != "mcf,DFS" {
		t.Fatalf("name = %q", g.Name())
	}
	got := take(g, 1000)
	if len(got) != 10 {
		t.Fatalf("concat of 5+5 yielded %d", len(got))
	}
	for i, a := range got {
		inSecond := uint64(a.Addr) >= 1<<24
		if (i >= 5) != inSecond {
			t.Fatalf("access %d at %#x crosses the phase seam wrong", i, uint64(a.Addr))
		}
	}
	if len(take(g, 1)) != 0 {
		t.Fatal("exhausted concat must stay exhausted")
	}

	// A larger block spans the seam and matches the stream exactly.
	g2 := mk()
	buf := make([]memsys.Access, 8)
	if n := NextBlock(g2, buf); n != 8 {
		t.Fatalf("NextBlock across the seam = %d, want 8", n)
	}
	for i := range buf {
		if buf[i] != got[i] {
			t.Fatalf("block access %d = %+v, want %+v", i, buf[i], got[i])
		}
	}
	if n := NextBlock(g2, buf); n != 2 {
		t.Fatalf("tail block = %d, want 2", n)
	}
}

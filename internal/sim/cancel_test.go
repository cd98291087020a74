package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cosmos/internal/memsys"
	"cosmos/internal/secmem"
	"cosmos/internal/trace"
)

func TestRunContextCancelBounded(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := New(testConfig(), secmem.DesignCosmos())
	gen := trace.NewUniform(region(1<<28, 256<<20), 10, 7, 1)
	const max = 10_000_000 // far more than a cancelled run may consume
	r, err := s.RunContext(ctx, trace.Limit(gen, max), max)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation is polled every CancelCheckEvery steps: a pre-cancelled
	// context must stop at the very first poll.
	if r.Accesses == 0 || r.Accesses > CancelCheckEvery {
		t.Fatalf("cancelled run consumed %d accesses, want (0, %d]", r.Accesses, CancelCheckEvery)
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	run := func(viaCtx bool) Results {
		s := New(testConfig(), secmem.DesignCosmos())
		gen := trace.NewUniform(region(1<<28, 256<<20), 10, 7, 1)
		if viaCtx {
			r, err := s.RunContext(context.Background(), trace.Limit(gen, 30_000), 30_000)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		return s.Run(trace.Limit(gen, 30_000), 30_000)
	}
	a, b := run(false), run(true)
	if a.Cycles != b.Cycles || a.Traffic != b.Traffic {
		t.Fatal("RunContext with a background context must match Run exactly")
	}
}

// halfCutTrace writes n uniform accesses as a gzip trace file and keeps
// only the first half of its bytes.
func halfCutTrace(t *testing.T, n uint64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "half.trc.gz")
	gen := trace.NewUniform(memsys.Region{Base: 1 << 30, Size: 1 << 30, Elem: 1}, 25, 1, 1)
	if _, err := trace.WriteFile(path, gen, n); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunContextReportsDamagedTrace: a truncated trace file fails the run
// with the partial Results instead of passing for a complete one.
func TestRunContextReportsDamagedTrace(t *testing.T) {
	g, err := trace.OpenFile(halfCutTrace(t, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	s := New(DefaultConfig(), secmem.DesignMorph())
	r, err := s.RunContext(context.Background(), trace.Limit(g, 100_000), 100_000)
	if err == nil {
		t.Fatalf("half-cut trace ran %d of 100000 accesses with no error", r.Accesses)
	}
	if r.Accesses == 0 || r.Accesses >= 100_000 {
		t.Fatalf("partial Results cover %d accesses", r.Accesses)
	}
}

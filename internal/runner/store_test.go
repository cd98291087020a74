package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cosmos/internal/memsys"
	"cosmos/internal/secmem"
	"cosmos/internal/trace"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := New(Options{Workers: 1, Store: st})
	sp := testSpec()
	a, err := o.Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d runs, want 1", st.Len())
	}

	// A fresh process over the same directory restores without executing.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 1 {
		t.Fatalf("reopened store lists %d runs, want 1", st2.Len())
	}
	idx := st2.Index()
	if idx[0].Key != sp.Key() || idx[0].Workload != "mcf" {
		t.Fatalf("index entry = %+v", idx[0])
	}
	o2 := New(Options{Workers: 1, Store: st2})
	b, err := o2.Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	stats := o2.Stats()
	if stats.Executed != 0 || stats.Restored != 1 {
		t.Fatalf("resume stats = %+v, want pure restore", stats)
	}
	// The JSON round trip must be exact: restored results are bit-identical
	// to the originally computed ones.
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("restored results differ:\n%+v\nvs\n%+v", a, b)
	}
}

func TestStoreCorruptRecordRecomputes(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	o := New(Options{Workers: 1, Store: st})
	if _, err := o.Run(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	// Truncate the record mid-file, as a kill -9 during a non-atomic write
	// would. The store must treat it as absent.
	path := filepath.Join(dir, "runs", sp.Key()+".json")
	if err := os.WriteFile(path, []byte("{\"version\":\"cosmos-results-v1\""), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get(context.Background(), sp.Key()); ok {
		t.Fatal("corrupt record must read as a miss")
	}
	o2 := New(Options{Workers: 1, Store: st2})
	if _, err := o2.Run(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	if stats := o2.Stats(); stats.Executed != 1 || stats.Restored != 0 {
		t.Fatalf("stats = %+v, want recompute", stats)
	}
	// The recompute healed the store.
	if _, ok := st2.Get(context.Background(), sp.Key()); !ok {
		t.Fatal("recomputed run was not re-persisted")
	}
}

func TestStoreVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	o := New(Options{Workers: 1, Store: st})
	if _, err := o.Run(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "runs", sp.Key()+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangled := []byte(string(b))
	mangled = []byte(replaceOnce(string(mangled), storeVersion, "cosmos-results-v0"))
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(context.Background(), sp.Key()); ok {
		t.Fatal("version-mismatched record must read as a miss")
	}
}

func TestStoreIndexToleratesPartialLine(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	o := New(Options{Workers: 1, Store: st})
	if _, err := o.Run(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-append: a trailing partial line.
	f, err := os.OpenFile(filepath.Join(dir, "index.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"key\":\"deadbeef\","); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 1 {
		t.Fatalf("index lists %d runs, want the 1 intact entry", st2.Len())
	}
}

func replaceOnce(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	return s
}

// TestDamagedTraceCellFailsUnstored: a file: cell whose trace is cut short
// fails, and the store keeps no record of it.
func TestDamagedTraceCellFailsUnstored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "half.trc.gz")
	gen := trace.NewUniform(memsys.Region{Base: 1 << 30, Size: 1 << 30, Elem: 1}, 25, 1, 1)
	if _, err := trace.WriteFile(path, gen, 100_000); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	o := New(Options{Workers: 1, Store: st})
	sp := Spec{Workload: "file:" + path, Design: secmem.DesignMorph(), Accesses: 100_000, Seed: 7}
	if _, err := o.Run(context.Background(), sp); err == nil {
		t.Fatal("a half-cut trace cell must fail")
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("store holds %d records after a failed cell", n)
	}
	if _, ok := st.Get(context.Background(), sp.Key()); ok {
		t.Fatal("failed cell is readable from the store")
	}
	if got := o.Stats().Failed; got != 1 {
		t.Fatalf("Failed = %d, want 1", got)
	}
}

func TestWithRetryTransient(t *testing.T) {
	defer func(s func(context.Context, time.Duration) error) { storeSleep = s }(storeSleep)
	var slept []time.Duration
	storeSleep = func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil }

	ctx := context.Background()
	st := &Store{}
	fails := 2
	err := st.withRetry(ctx, func() error {
		if fails > 0 {
			fails--
			return errors.New("transient")
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("retryable op failed despite recovery: %v", err)
	}
	if st.Retries() != 2 || len(slept) != 2 {
		t.Fatalf("retries = %d, sleeps = %d, want 2 each", st.Retries(), len(slept))
	}
	// Exponential backoff: the second wait draws from a doubled base.
	if slept[1] < storeRetryBase<<1 || slept[1] > storeRetryBase<<2 {
		t.Fatalf("second backoff %v outside [2x, 4x) base", slept[1])
	}

	// A permanent failure is retried to the attempt budget, then surfaced.
	st2 := &Store{}
	calls := 0
	if err := st2.withRetry(ctx, func() error { calls++; return errors.New("down") }, nil); err == nil {
		t.Fatal("permanent failure swallowed")
	}
	if calls != storeAttempts {
		t.Fatalf("op ran %d times, want %d", calls, storeAttempts)
	}

	// A non-retryable error surfaces immediately.
	st3 := &Store{}
	calls = 0
	sentinel := errors.New("missing")
	err = st3.withRetry(ctx, func() error { calls++; return sentinel }, func(error) bool { return false })
	if !errors.Is(err, sentinel) || calls != 1 || st3.Retries() != 0 {
		t.Fatalf("non-retryable error retried: calls=%d retries=%d err=%v", calls, st3.Retries(), err)
	}
}

// TestWithRetryCancelDuringBackoff proves a context cancelled while the
// retry loop is backing off aborts the wait immediately: the op does not
// run again and the surfaced error is the context's.
func TestWithRetryCancelDuringBackoff(t *testing.T) {
	st := &Store{}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := st.withRetry(ctx, func() error {
		calls++
		cancel() // the SIGTERM lands while the first backoff is pending
		return errors.New("transient")
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("op ran %d times after cancellation, want 1", calls)
	}
}

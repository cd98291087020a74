package trace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosmos/internal/memsys"
)

func TestTraceFileRoundTrip(t *testing.T) {
	for _, name := range []string{"plain.trc", "packed.trc.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			src := func() Generator {
				return FromFunc("src", func(emit func(memsys.Access)) {
					for i := 0; i < 5000; i++ {
						emit(memsys.Access{
							Addr:   memsys.Addr(i * 64),
							Type:   memsys.AccessType(i % 2),
							Thread: uint8(i % 4),
							Region: uint16(i % 7),
							Dep:    i%3 == 0,
						})
					}
				})
			}
			n, err := WriteFile(path, src(), 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if n != 5000 {
				t.Fatalf("wrote %d records", n)
			}

			g, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			want := take(src(), 10_000)
			got := take(g, 10_000)
			if len(got) != 5000 || len(want) != 5000 {
				t.Fatalf("replayed %d records of %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestTraceFileLimit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lim.trc")
	gen := NewSequential(memsys.Region{Base: 0, Size: 64 * 100, Elem: 1}, 0, 1)
	n, err := WriteFile(path, gen, 42)
	if err != nil || n != 42 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	g, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if got := len(take(g, 1000)); got != 42 {
		t.Fatalf("replayed %d", got)
	}
}

func TestOpenFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.trc")
	os.WriteFile(bad, []byte("this is not a trace"), 0o644)
	if _, err := OpenFile(bad); err == nil {
		t.Fatal("garbage file must be rejected")
	}
	short := filepath.Join(dir, "short.trc")
	os.WriteFile(short, []byte("CT"), 0o644)
	if _, err := OpenFile(short); err == nil {
		t.Fatal("short file must be rejected")
	}
	if _, err := OpenFile(filepath.Join(dir, "missing.trc")); err == nil {
		t.Fatal("missing file must error")
	}
	wrongVer := filepath.Join(dir, "ver.trc")
	os.WriteFile(wrongVer, []byte("CTRC\x07\x00\x00\x00"), 0o644)
	if _, err := OpenFile(wrongVer); err == nil {
		t.Fatal("wrong version must be rejected")
	}
}

// cutTrace writes n uniform records to path, then keeps only the first
// keep bytes of the file.
func cutTrace(t *testing.T, path string, n uint64, keep func(size int) int) {
	t.Helper()
	gen := NewUniform(memsys.Region{Base: 0, Size: 1 << 30, Elem: 1}, 25, 1, 1)
	if _, err := WriteFile(path, gen, n); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:keep(len(b))], 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDamagedTraceFileFails(t *testing.T) {
	dir := t.TempDir()
	halfGz := filepath.Join(dir, "half.trc.gz")
	cutTrace(t, halfGz, 100_000, func(size int) int { return size / 2 })
	stray := filepath.Join(dir, "stray.trc")
	cutTrace(t, stray, 1000, func(size int) int { return size - 7 })
	whole := filepath.Join(dir, "whole.trc.gz")
	cutTrace(t, whole, 1000, func(size int) int { return size })

	open := func(path string) *FileGenerator {
		g, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return g
	}
	wrap := map[string]func(Generator) Generator{
		"file":       func(g Generator) Generator { return g },
		"limit":      func(g Generator) Generator { return Limit(g, 1<<20) },
		"interleave": func(g Generator) Generator { return NewInterleave("i", []Generator{g}, 64) },
	}
	for name, w := range wrap {
		g := w(open(halfGz))
		n := len(take(g, 200_000))
		if n == 0 || n >= 100_000 {
			t.Errorf("%s: half-cut file replayed %d records", name, n)
		}
		if Err(g) == nil {
			t.Errorf("%s: half-cut file replayed %d of 100000 records and reported no error", name, n)
		}
	}

	g := open(stray)
	if n := len(take(g, 2000)); n != 999 {
		t.Errorf("file with a partial last record replayed %d whole records, want 999", n)
	}
	if err := g.Err(); err == nil || !strings.Contains(err.Error(), "partial last record") {
		t.Errorf("partial last record: err = %v", err)
	}

	g = open(whole)
	if n := len(take(g, 2000)); n != 1000 || g.Err() != nil {
		t.Errorf("intact file: %d records, err %v", n, g.Err())
	}
}

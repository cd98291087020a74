package trace

import (
	"os"
	"path/filepath"
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

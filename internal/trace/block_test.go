package trace

import (
	"os"
	"path/filepath"
	"testing"

	"cosmos/internal/memsys"
)

// take drains up to n accesses one at a time (block size 1): the reference
// stream every other block size must reproduce.
func take(g Generator, n int) []memsys.Access { return collectBlocks(g, n, 1) }

// collectBlocks drains up to n accesses via NextBlock with an awkward block
// size to exercise short reads and mid-chunk boundaries.
func collectBlocks(g Generator, n, block int) []memsys.Access {
	out := make([]memsys.Access, 0, n)
	buf := make([]memsys.Access, block)
	for len(out) < n {
		want := n - len(out)
		if want > block {
			want = block
		}
		m := NextBlock(g, buf[:want])
		if m == 0 {
			break
		}
		out = append(out, buf[:m]...)
	}
	return out
}

// region for the synthetic generators under test.
var blkRegion = memsys.Region{Base: 1 << 20, Size: 8 << 20, Elem: 1}

// TestBlockDecodeMatchesScalar builds every generator twice with identical
// seeds and asserts the stream decoded in blocks is element-identical to
// the one decoded an access at a time, across block sizes that do and do
// not divide the total.
func TestBlockDecodeMatchesScalar(t *testing.T) {
	const n = 10_000
	mk := map[string]func() Generator{
		"sequential": func() Generator { return NewSequential(blkRegion, 4, 7) },
		"uniform":    func() Generator { return NewUniform(blkRegion, 30, 11, 7) },
		"zipf":       func() Generator { return NewZipf(blkRegion, 4096, 0.8, 13, 7) },
		"chase":      func() Generator { return NewPointerChase(blkRegion, 4096, 17, 7) },
		"limited":    func() Generator { return Limit(NewUniform(blkRegion, 30, 11, 7), 5000) },
		"funcgen": func() Generator {
			return FromFunc("push", func(emit func(memsys.Access)) {
				for _, a := range take(NewSequential(blkRegion, 3, 9), 7000) {
					emit(a)
				}
			})
		},
		"interleave": func() Generator {
			return NewInterleave("mix", []Generator{
				NewSequential(blkRegion, 4, 1),
				Limit(NewUniform(blkRegion, 30, 5, 2), 777),
				NewPointerChase(blkRegion, 512, 3, 3),
			}, 10)
		},
	}
	for name, build := range mk {
		for _, block := range []int{3, 64, 333, 1023, 1024, 1025, 4096} {
			a := build()
			b := build()
			want := take(a, n)
			got := collectBlocks(b, n, block)
			CloseIfCloser(a)
			CloseIfCloser(b)
			if len(got) != len(want) {
				t.Fatalf("%s block=%d: got %d accesses, want %d", name, block, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s block=%d: access %d = %+v, want %+v", name, block, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFileBlockDecodeMatchesScalar covers the CTRC parser, including a
// truncated trailing record, against the same file read one record at a
// time.
func TestFileBlockDecodeMatchesScalar(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.ctrc")
	if _, err := WriteFile(path, NewUniform(blkRegion, 25, 42, 5), 4321); err != nil {
		t.Fatal(err)
	}
	// Append a partial record: every block size must stop before it.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ga, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ga.Close()
	gb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer gb.Close()

	want := take(ga, 10_000)
	got := collectBlocks(gb, 10_000, 257)
	if len(want) != 4321 || len(got) != len(want) {
		t.Fatalf("got %d accesses, want %d (block size 1: %d)", len(got), 4321, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

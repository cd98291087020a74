package trace

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"cosmos/internal/memsys"
)

// FuzzTraceFile feeds arbitrary bytes to the trace-file parser: OpenFile
// must either fail with an error or produce a generator whose NextBlock and
// Close never panic, whatever the input — truncated headers, bad magic,
// wrong versions, partial records, random garbage. The block size the
// stream is drained with comes from the input too.
func FuzzTraceFile(f *testing.F) {
	// A valid file, produced by the writer itself.
	dir := f.TempDir()
	valid := filepath.Join(dir, "seed.trace")
	gen := NewUniform(memsys.Region{Base: 0, Size: 1 << 20, Elem: 1}, 25, 1, 1)
	if _, err := WriteFile(valid, gen, 16); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)

	f.Add([]byte{})                            // empty
	f.Add([]byte("CTRC"))                      // magic only
	f.Add([]byte("CTRC\x01\x00\x00"))          // short header
	f.Add([]byte("XXXX\x01\x00\x00\x00"))      // bad magic
	f.Add([]byte("CTRC\x07\x00\x00\x00"))      // wrong version
	f.Add([]byte("CTRC\x01\x00\x00\x00\x01"))  // partial record
	f.Add(append(b, 0xff, 0xee))               // trailing partial record
	f.Add([]byte("\x1f\x8b\x08\x00garbage..")) // gzip magic, corrupt body

	rec := make([]byte, 8+12)
	copy(rec, "CTRC\x01\x00\x00\x00")
	binary.LittleEndian.PutUint64(rec[8:], 0xdeadbeef)
	rec[16] = 3 // write + dep
	f.Add(rec)

	f.Fuzz(func(t *testing.T, data []byte) {
		block := 1
		if len(data) > 0 {
			block += int(data[len(data)-1])
		}
		buf := make([]memsys.Access, block)
		for _, name := range []string{"in.trace", "in.trace.gz"} {
			path := filepath.Join(t.TempDir(), name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			g, err := OpenFile(path)
			if err != nil {
				continue // rejected: that is a valid outcome
			}
			// Accepted: the stream must drain cleanly no matter how the
			// bytes were truncated or corrupted past the header, and an
			// uncompressed file yields exactly its whole records, then
			// reports an error exactly when a partial record follows them.
			total := 0
			for total < 1<<16 {
				m := g.NextBlock(buf)
				if m == 0 {
					break
				}
				total += m
			}
			if name == "in.trace" && total < 1<<16 {
				if want := (len(data) - 8) / recordBytes; total != want {
					t.Fatalf("decoded %d records from %d bytes, want %d", total, len(data), want)
				}
				if partial := (len(data)-8)%recordBytes != 0; (g.Err() != nil) != partial {
					t.Fatalf("%d bytes (partial record %v): err = %v", len(data), partial, g.Err())
				}
			}
			g.Close()
			// NextBlock after Close must keep reporting EOF, not panic.
			if n := g.NextBlock(buf); n != 0 {
				t.Fatalf("NextBlock returned %d accesses after Close", n)
			}
		}
	})
}

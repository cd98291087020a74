package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"cosmos/internal/memsys"
)

// Trace file format: the role Pintool captures played in the paper's §4.5
// tuning flow — a workload's address stream frozen to disk and replayed
// deterministically.
//
//	magic "CTRC" | version u8 | reserved [3]u8
//	records: addr u64 | flags u8 (bit0 write, bit1 dep) | thread u8 | region u16
//
// Files ending in .gz are gzip-compressed transparently.
const (
	fileMagic   = "CTRC"
	fileVersion = 1
	recordBytes = 12
)

// WriteFile drains up to n accesses from gen into path. A stream that
// fails (Err) fails the write.
func WriteFile(path string, gen Generator, n uint64) (written uint64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()

	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	bw := bufio.NewWriterSize(w, 1<<20)

	header := []byte(fileMagic + string([]byte{fileVersion, 0, 0, 0}))
	if _, err := bw.Write(header); err != nil {
		return 0, err
	}
	var blk [256]memsys.Access
	var recs [len(blk) * recordBytes]byte
	for written < n {
		m := gen.NextBlock(blk[:min(n-written, uint64(len(blk)))])
		if m == 0 {
			break
		}
		for i, a := range blk[:m] {
			rec := recs[i*recordBytes : (i+1)*recordBytes]
			binary.LittleEndian.PutUint64(rec[0:], uint64(a.Addr))
			var flags byte
			if a.Type == memsys.Write {
				flags |= 1
			}
			if a.Dep {
				flags |= 2
			}
			rec[8] = flags
			rec[9] = a.Thread
			binary.LittleEndian.PutUint16(rec[10:], a.Region)
		}
		if _, err := bw.Write(recs[:m*recordBytes]); err != nil {
			return written, err
		}
		written += uint64(m)
	}
	if err := Err(gen); err != nil {
		return written, err
	}
	if err := bw.Flush(); err != nil {
		return written, err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return written, err
		}
	}
	return written, nil
}

// FileGenerator replays a trace file as a Generator. A stream that ends
// anywhere but cleanly at a record boundary — gzip truncation or
// corruption, a read failure, a partial last record — still yields every
// whole record before the damage, then reports why through Err.
type FileGenerator struct {
	name string
	f    *os.File
	gz   *gzip.Reader
	r    *bufio.Reader
	eof  bool
	err  error
	blk  []byte // NextBlock read buffer
}

// OpenFile opens a trace written by WriteFile.
func OpenFile(path string) (*FileGenerator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	g := &FileGenerator{name: "file:" + path, f: f}
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("trace: %w", err)
		}
		g.gz = gz
		r = gz
	}
	g.r = bufio.NewReaderSize(r, 1<<20)

	header := make([]byte, 8)
	if _, err := io.ReadFull(g.r, header); err != nil {
		g.Close()
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(header[:4]) != fileMagic {
		g.Close()
		return nil, errors.New("trace: bad magic — not a cosmos trace file")
	}
	if header[4] != fileVersion {
		g.Close()
		return nil, fmt.Errorf("trace: unsupported version %d", header[4])
	}
	return g, nil
}

// Name implements Generator.
func (g *FileGenerator) Name() string { return g.name }

// NextBlock implements Generator: records are read and decoded in one pass
// over a block-sized read buffer.
func (g *FileGenerator) NextBlock(dst []memsys.Access) int {
	if g.eof {
		return 0
	}
	want := len(dst) * recordBytes
	if want > len(g.blk) {
		g.blk = make([]byte, want)
	}
	// A read loop rather than io.ReadFull: ReadFull reports a clean end
	// after a partial block as io.ErrUnexpectedEOF, which is also what a
	// truncated gzip stream returns.
	got := 0
	var err error
	for got < want && err == nil {
		var m int
		m, err = g.r.Read(g.blk[got:want])
		got += m
	}
	switch {
	case err == io.EOF && got%recordBytes != 0:
		g.err = fmt.Errorf("trace: %s: partial last record (%d stray bytes)", g.name, got%recordBytes)
	case err != nil && err != io.EOF:
		g.err = fmt.Errorf("trace: %s: %w", g.name, err)
	}
	got -= got % recordBytes
	if got == 0 {
		g.eof = true
		return 0
	}
	for i := 0; i < got/recordBytes; i++ {
		rec := g.blk[i*recordBytes:]
		a := memsys.Access{
			Addr:   memsys.Addr(binary.LittleEndian.Uint64(rec[0:])),
			Thread: rec[9],
			Region: binary.LittleEndian.Uint16(rec[10:]),
		}
		if rec[8]&1 != 0 {
			a.Type = memsys.Write
		}
		a.Dep = rec[8]&2 != 0
		dst[i] = a
	}
	if err != nil {
		g.eof = true
	}
	return got / recordBytes
}

// Err reports the first error that ended the stream early, or
// nil after a clean end or while records remain.
func (g *FileGenerator) Err() error { return g.err }

// Close implements Closer.
func (g *FileGenerator) Close() {
	if g.gz != nil {
		g.gz.Close()
		g.gz = nil
	}
	if g.f != nil {
		g.f.Close()
		g.f = nil
	}
	g.eof = true
}

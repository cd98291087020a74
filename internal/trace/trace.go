// Package trace defines the access-stream abstraction that connects workload
// generators to the simulator, plus synthetic pattern generators (sequential,
// random, zipf, pointer-chase) and a deterministic multi-thread interleaver.
// Workloads are streamed — traces are never materialised in memory.
package trace

import (
	"math"
	"sort"

	"cosmos/internal/memsys"
	"cosmos/internal/rl"
)

// Generator produces a stream of memory accesses a block at a time.
// NextBlock fills dst with the next accesses of the stream and returns how
// many were written. Short reads (0 < n < len(dst)) are allowed mid-stream;
// 0 means the stream is exhausted. Implementations must be deterministic
// for a given construction seed, and the stream must not depend on the
// block sizes a consumer asks for.
type Generator interface {
	Name() string
	NextBlock(dst []memsys.Access) int
}

// NextBlock decodes up to len(dst) accesses from g. Callers must treat a
// short return as Generator.NextBlock does: keep calling until 0.
func NextBlock(g Generator, dst []memsys.Access) int { return g.NextBlock(dst) }

// Closer is implemented by generators that own background resources (the
// goroutine-backed FromFunc producer). Consumers that stop early should
// close them.
type Closer interface {
	Close()
}

// CloseIfCloser shuts a generator down if it needs shutting down.
func CloseIfCloser(g Generator) {
	if c, ok := g.(Closer); ok {
		c.Close()
	}
}

// failer is implemented by generators whose stream can end early on a
// failure rather than cleanly (a damaged trace file). Combinators forward
// it, as they forward Close.
type failer interface {
	Err() error
}

// Err returns the error that ended g's stream early, or nil when g cannot
// fail or has not failed.
func Err(g Generator) error {
	if f, ok := g.(failer); ok {
		return f.Err()
	}
	return nil
}

// firstErr is Err over several streams: the first one's failure, if any.
func firstErr(gens []Generator) error {
	for _, g := range gens {
		if err := Err(g); err != nil {
			return err
		}
	}
	return nil
}

// --- limiting and composition ---

type limited struct {
	g    Generator
	left uint64
}

// Limit caps a stream at n accesses.
func Limit(g Generator, n uint64) Generator { return &limited{g: g, left: n} }

func (l *limited) Name() string { return l.g.Name() }

// NextBlock implements Generator: the cap is applied to the block size
// and the wrapped generator decodes the rest.
func (l *limited) NextBlock(dst []memsys.Access) int {
	if l.left == 0 {
		return 0
	}
	if uint64(len(dst)) > l.left {
		dst = dst[:l.left]
	}
	n := l.g.NextBlock(dst)
	l.left -= uint64(n)
	if n == 0 {
		l.left = 0
	}
	return n
}

func (l *limited) Close() { CloseIfCloser(l.g) }

func (l *limited) Err() error { return Err(l.g) }

type concat struct {
	name string
	gens []Generator
	cur  int
}

// Concat chains streams back to back: the next generator starts when the
// previous one is exhausted (wrap phase-sized segments with Limit). The
// result models a workload switch mid-run — the access stream is still a
// pure function of its parts, so runs stay deterministic.
func Concat(name string, gens ...Generator) Generator {
	return &concat{name: name, gens: gens}
}

func (c *concat) Name() string { return c.name }

// NextBlock implements Generator: each phase decodes in bulk, and a
// block may span the seam between two phases.
func (c *concat) NextBlock(dst []memsys.Access) int {
	n := 0
	for n < len(dst) && c.cur < len(c.gens) {
		m := c.gens[c.cur].NextBlock(dst[n:])
		if m == 0 {
			CloseIfCloser(c.gens[c.cur])
			c.cur++
			continue
		}
		n += m
	}
	return n
}

func (c *concat) Close() {
	for ; c.cur < len(c.gens); c.cur++ {
		CloseIfCloser(c.gens[c.cur])
	}
}

func (c *concat) Err() error { return firstErr(c.gens) }

// Interleave merges per-thread streams deterministically: `chunk` accesses
// from thread 0, then thread 1, … wrapping around, skipping exhausted
// threads. Thread IDs are stamped onto the accesses.
type Interleave struct {
	name    string
	gens    []Generator
	chunk   int
	cur     int
	curLeft int
	done    []bool
	alive   int
}

// NewInterleave builds the merger. chunk controls the interleaving grain
// (how many consecutive accesses one thread issues before yielding).
func NewInterleave(name string, gens []Generator, chunk int) *Interleave {
	if chunk < 1 {
		chunk = 1
	}
	return &Interleave{
		name: name, gens: gens, chunk: chunk,
		curLeft: chunk, done: make([]bool, len(gens)), alive: len(gens),
	}
}

// Name implements Generator.
func (iv *Interleave) Name() string { return iv.name }

// NextBlock implements Generator: each iteration pulls up to the
// current thread's remaining chunk budget from that thread's stream in one
// block, stamps the thread id, and rotates, so the merged order does not
// depend on the block sizes asked for.
func (iv *Interleave) NextBlock(dst []memsys.Access) int {
	n := 0
	for n < len(dst) && iv.alive > 0 {
		if iv.done[iv.cur] || iv.curLeft == 0 {
			iv.cur = (iv.cur + 1) % len(iv.gens)
			iv.curLeft = iv.chunk
			continue
		}
		want := len(dst) - n
		if want > iv.curLeft {
			want = iv.curLeft
		}
		m := iv.gens[iv.cur].NextBlock(dst[n : n+want])
		if m == 0 {
			iv.done[iv.cur] = true
			iv.alive--
			continue
		}
		for i := n; i < n+m; i++ {
			dst[i].Thread = uint8(iv.cur)
		}
		iv.curLeft -= m
		n += m
	}
	return n
}

// Close implements Closer.
func (iv *Interleave) Close() {
	for _, g := range iv.gens {
		CloseIfCloser(g)
	}
}

// Err reports the first thread stream's failure (see Err).
func (iv *Interleave) Err() error { return firstErr(iv.gens) }

// --- goroutine-backed producer ---

// producerBatch is the size of each of a producer's two batch buffers.
const producerBatch = 1024

// FromFunc adapts a push-style workload (a function that calls emit for each
// access) into a pull-style Generator. The workload runs in its own
// goroutine, on demand: two batch buffers circulate between it and the
// consumer, and handing back a drained buffer is the request for the next
// batch, so the workload runs at most one batch ahead of its consumer.
// Close cancels the producer.
func FromFunc(name string, run func(emit func(memsys.Access))) Generator {
	return &funcGen{name: name, run: run}
}

type funcGen struct {
	name    string
	run     func(emit func(memsys.Access))
	filled  chan []memsys.Access // producer → consumer: a filled batch
	empty   chan []memsys.Access // consumer → producer: a drained batch, the request for the next
	done    chan struct{}
	started bool
	buf     []memsys.Access
	pos     int
	eof     bool
}

func (f *funcGen) Name() string { return f.name }

// producerCancelled is the sentinel panic value used to unwind a workload
// whose consumer closed the generator early. Workloads are often infinite
// loops, so cancellation must forcibly unwind them.
type producerCancelled struct{}

// start launches the producer and hands it both buffers: one request for
// the batch the consumer reads first, one for the batch after it.
func (f *funcGen) start() {
	f.filled = make(chan []memsys.Access, 2)
	f.empty = make(chan []memsys.Access, 2)
	f.done = make(chan struct{})
	f.started = true
	f.empty <- make([]memsys.Access, 0, producerBatch)
	f.empty <- make([]memsys.Access, 0, producerBatch)
	go func() {
		defer close(f.filled)
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(producerCancelled); !ok {
					panic(r)
				}
			}
		}()
		var batch []memsys.Access
		emit := func(a memsys.Access) {
			if batch == nil {
				select {
				case batch = <-f.empty:
				case <-f.done:
					panic(producerCancelled{})
				}
			}
			batch = append(batch, a)
			if len(batch) == producerBatch {
				// Never blocks: only two buffers exist and filled holds
				// two, so there is always room for the one in hand.
				f.filled <- batch
				batch = nil
			}
		}
		f.run(emit)
		if len(batch) > 0 {
			f.filled <- batch
		}
	}()
}

// refill hands the drained batch back to the producer — the request for
// the next one — and waits for a filled batch. It reports false at the end
// of the stream.
func (f *funcGen) refill() bool {
	if !f.started {
		f.start()
	}
	if f.buf != nil {
		f.empty <- f.buf[:0] // never blocks: empty holds both buffers
	}
	b, ok := <-f.filled
	if !ok {
		f.eof, f.buf = true, nil
		return false
	}
	f.buf, f.pos = b, 0
	return true
}

// NextBlock implements Generator: it bulk-copies from the producer's
// current batch, returning a short block at batch boundaries instead of
// waiting for the batch after it.
func (f *funcGen) NextBlock(dst []memsys.Access) int {
	if f.eof || f.pos >= len(f.buf) && !f.refill() {
		return 0
	}
	n := copy(dst, f.buf[f.pos:])
	f.pos += n
	return n
}

// Close implements Closer: it cancels the producer goroutine.
func (f *funcGen) Close() {
	if !f.started || f.eof {
		return
	}
	close(f.done)
	// Drain until the producer closes the channel.
	for range f.filled {
	}
	f.eof = true
}

// --- synthetic generators ---

// Sequential streams through a region front to back, one line at a time,
// with the given write ratio (writeEvery = 0 means read-only; 4 means every
// 4th access is a write).
type Sequential struct {
	region     memsys.Region
	line       uint64
	lines      uint64
	writeEvery uint64
	n          uint64
	region16   uint16
}

// NewSequential builds a sequential streamer over region.
func NewSequential(region memsys.Region, writeEvery uint64, sig uint16) *Sequential {
	return &Sequential{region: region, lines: (region.Size + memsys.LineSize - 1) / memsys.LineSize, writeEvery: writeEvery, region16: sig}
}

// Name implements Generator.
func (s *Sequential) Name() string { return "sequential" }

// NextBlock implements Generator.
func (s *Sequential) NextBlock(dst []memsys.Access) int {
	if s.lines == 0 {
		return 0
	}
	for i := range dst {
		a := memsys.Access{Addr: s.region.Base + memsys.Addr(s.line*memsys.LineSize), Type: memsys.Read, Region: s.region16}
		s.n++
		if s.writeEvery != 0 && s.n%s.writeEvery == 0 {
			a.Type = memsys.Write
		}
		s.line = (s.line + 1) % s.lines
		dst[i] = a
	}
	return len(dst)
}

// Uniform emits uniformly random lines within a region, endless.
type Uniform struct {
	region   memsys.Region
	lines    uint64
	rng      *rl.Rand
	writePct int
	sig      uint16
}

// NewUniform builds the random generator; writePct in [0,100].
func NewUniform(region memsys.Region, writePct int, seed uint64, sig uint16) *Uniform {
	return &Uniform{region: region, lines: region.Size / memsys.LineSize, rng: rl.NewRand(seed), writePct: writePct, sig: sig}
}

// Name implements Generator.
func (u *Uniform) Name() string { return "uniform" }

// NextBlock implements Generator.
func (u *Uniform) NextBlock(dst []memsys.Access) int {
	for i := range dst {
		line := u.rng.Uint64() % u.lines
		a := memsys.Access{Addr: u.region.Base + memsys.Addr(line*memsys.LineSize), Type: memsys.Read, Region: u.sig}
		if u.rng.Intn(100) < u.writePct {
			a.Type = memsys.Write
		}
		dst[i] = a
	}
	return len(dst)
}

// Zipf emits lines with a Zipfian popularity distribution (exponent theta),
// the canonical model for skewed, cache-friendly-but-heavy-tailed access.
type Zipf struct {
	region memsys.Region
	cum    []float64
	perm   []uint32
	rng    *rl.Rand
	sig    uint16
}

// NewZipf builds a Zipf generator over the first n lines of region. Ranks
// are permuted across the region so popularity is not address-correlated.
func NewZipf(region memsys.Region, n int, theta float64, seed uint64, sig uint16) *Zipf {
	if n < 1 {
		n = 1
	}
	maxLines := int(region.Size / memsys.LineSize)
	if n > maxLines {
		n = maxLines
	}
	z := &Zipf{region: region, rng: rl.NewRand(seed), sig: sig}
	z.cum = make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), theta)
		z.cum[i] = sum
	}
	for i := range z.cum {
		z.cum[i] /= sum
	}
	z.perm = make([]uint32, n)
	for i := range z.perm {
		z.perm[i] = uint32(i)
	}
	prng := rl.NewRand(seed ^ 0xabcdef)
	for i := n - 1; i > 0; i-- {
		j := prng.Intn(i + 1)
		z.perm[i], z.perm[j] = z.perm[j], z.perm[i]
	}
	return z
}

// Name implements Generator.
func (z *Zipf) Name() string { return "zipf" }

// NextBlock implements Generator.
func (z *Zipf) NextBlock(dst []memsys.Access) int {
	for i := range dst {
		r := sort.SearchFloat64s(z.cum, z.rng.Float64())
		if r >= len(z.perm) {
			r = len(z.perm) - 1
		}
		line := uint64(z.perm[r])
		dst[i] = memsys.Access{Addr: z.region.Base + memsys.Addr(line*memsys.LineSize), Type: memsys.Read, Region: z.sig}
	}
	return len(dst)
}

// PointerChase emits a dependent chain of loads following a random
// permutation cycle through the region — the archetypal irregular pattern
// (mcf-style).
type PointerChase struct {
	region memsys.Region
	next   []uint32
	cur    uint32
	sig    uint16
}

// NewPointerChase builds a single-cycle random permutation over n lines.
func NewPointerChase(region memsys.Region, n int, seed uint64, sig uint16) *PointerChase {
	if n < 2 {
		n = 2
	}
	maxLines := int(region.Size / memsys.LineSize)
	if n > maxLines {
		n = maxLines
	}
	// Sattolo's algorithm: a uniform single-cycle permutation.
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	rng := rl.NewRand(seed)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		p[i], p[j] = p[j], p[i]
	}
	return &PointerChase{region: region, next: p, sig: sig}
}

// Name implements Generator.
func (p *PointerChase) Name() string { return "pointer-chase" }

// NextBlock implements Generator.
func (p *PointerChase) NextBlock(dst []memsys.Access) int {
	cur := p.cur
	for i := range dst {
		dst[i] = memsys.Access{Addr: p.region.Base + memsys.Addr(uint64(cur)*memsys.LineSize), Type: memsys.Read, Region: p.sig}
		cur = p.next[cur]
	}
	p.cur = cur
	return len(dst)
}

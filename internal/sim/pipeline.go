package sim

import (
	"context"
	"sync"
	"time"

	"cosmos/internal/memsys"
	"cosmos/internal/telemetry"
	"cosmos/internal/trace"
)

// This file splits Step into its two halves and overlaps them in
// RunContext (DESIGN.md §11, "The two halves of Step").
//
//   walk (functional): the on-chip cache probes and the demand counters.
//        It never reads a clock or the secure-memory engine; the dirty
//        victims the last on-chip level evicts are caught by a victimLog
//        instead of entering the engine.
//   timeAccess (timing): everything else, from the logged outcome: the
//        access counters, the engine's writeback, fetch-plan and fetch
//        calls in the order the serial cascade makes them, and the thread
//        clock.
//
// Step runs the two back to back on one access. RunContext runs walk on a
// worker goroutine up to pipeDepth blocks ahead of the caller, which
// decodes the stream and times each block the worker has finished.

// walkRec is walk's log of one access. Its victims are the next
// top+low entries of the block's victim list: first those the top-level
// probe's writeback cascade evicted from the last level, then those the
// lower probes evicted.
type walkRec struct {
	// core is the access's core: its thread (a uint8) modulo the cores.
	core uint8
	// missed counts the levels that missed: 0 is a top-level hit, i in
	// (0, len(chain)) a hit at level i, len(chain) an off-chip access.
	missed uint8
	top    uint8
	low    uint8
}

// walkLog is walk's output for a block: one record per access and the
// victims' lines in eviction order.
type walkLog struct {
	recs    []walkRec
	victims []uint64
}

func newWalkLog(accesses, levels int) walkLog {
	// One probe evicts at most one line per level of its cascade, so an
	// access evicts at most one last-level victim per probe.
	return walkLog{
		recs:    make([]walkRec, accesses),
		victims: make([]uint64, 0, accesses*levels),
	}
}

// victimLog is the last on-chip level's writeback link: it records the
// line of every dirty victim that level evicts, for the timing half to
// replay into the secure-memory terminal. Only walk writes it; the padding
// gives it cache lines of its own, so the worker's appends never contend
// with fields the caller reads.
type victimLog struct {
	lines []uint64
	_     [128 - 24]byte
}

// Writeback logs the victim. Its Core and Now come from the timing half,
// which replays the line with the access's core and clock.
func (v *victimLog) Writeback(r memsys.Request) { v.lines = append(v.lines, r.Line) }

// walk is Step's functional half over a block of accesses: it probes each
// access down its core's chain until a hit, counts the demand accesses and
// misses per level, and logs the outcome into log (which must have room
// for len(accs) records). It touches no state the timing half writes.
func (s *System) walk(accs []memsys.Access, log *walkLog) {
	chains, coreOf, demand, wb := s.chains, &s.coreOf, s.demand, s.victims
	wb.lines = log.victims[:0]
	for k, a := range accs {
		c := int(coreOf[a.Thread])
		chain := chains[c]
		line := a.Addr.Line()
		v := len(wb.lines)
		demand[0].accesses++
		hit := chain[0].Probe(line, a.Type == memsys.Write, a.Region, c, 0)
		r := walkRec{core: uint8(c), top: uint8(len(wb.lines) - v)}
		if !hit {
			demand[0].misses++
			v = len(wb.lines)
			for r.missed = 1; int(r.missed) < len(chain); r.missed++ {
				i := r.missed
				demand[i].accesses++
				if chain[i].Probe(line, false, a.Region, c, 0) {
					break
				}
				demand[i].misses++
			}
			r.low = uint8(len(wb.lines) - v)
		}
		log.recs[k] = r
	}
	log.victims = wb.lines
}

// timeAccess is Step's timing half: it charges access a, whose walk logged
// r and whose victims start victims, and returns its critical-path
// latency. The engine sees the calls of the serial cascade in its order:
// the top-level probe's writebacks, the fetch plan at the top-level miss,
// the lower probes' writebacks, then the hit grading or the off-chip fetch.
func (s *System) timeAccess(a memsys.Access, r walkRec, victims []uint64) uint64 {
	c := int(r.core)
	now := s.threadCycles[c]
	write := a.Type == memsys.Write
	line := a.Addr.Line()

	if s.spans != nil {
		s.spans.MaybeBegin(s.accesses, c, line)
	}
	s.accesses++
	if write {
		s.writes++
	} else {
		s.reads++
	}
	s.writeback(c, now, victims[:r.top])

	lat := s.l1Lat
	missed := int(r.missed)
	var path fetchPath
	if missed > 0 {
		// Miss at the top: the fetch plan (location prediction, early
		// counter issue) opens before the lower levels are probed.
		plan := s.planFetch(c, now, line, a.Addr)
		s.writeback(c, now, victims[r.top:r.top+r.low])
		if missed < len(s.lats) {
			for _, l := range s.lats[1 : missed+1] {
				lat += l
			}
			s.gradeOnChipHit(plan, now, a.Addr, write, missed == len(s.lats)-1)
		} else {
			// Off-chip: resolve the plan into the timed fetch path.
			path = s.composeFetch(c, now, line, a.Addr, plan)
			fetchEnd := path.finish()
			lat = s.l1Lat + fetchEnd
			s.offChipReads++
			s.fetchLatSum += fetchEnd
			s.fetchHist.Observe(fetchEnd)
			if path.predictedOff {
				s.bypassed++
			}
		}
	}

	if s.spans != nil {
		s.spans.LevelMisses(missed)
		if missed == len(s.lats) {
			s.spans.NoteFetch(s.l1Lat, path.walkLat, path.ctrStart(), path.ctrLat,
				path.dataStart(), path.dataLat, lat-s.l1Lat,
				path.secure, path.ctrHit, path.predictedOff)
		}
		s.spans.EndAccess(lat)
	}
	s.advance(c, write, a.Dep, lat)
	return lat
}

// writeback hands logged last-level victims to the secure-memory terminal
// with the core and clock the serial cascade would have passed.
func (s *System) writeback(c int, now uint64, lines []uint64) {
	for _, l := range lines {
		s.term.Writeback(memsys.Request{Line: l, Write: true, Sig: memsys.SigWriteback, Core: c, Now: now})
	}
}

// pipeDepth is how many blocks RunContext keeps in flight, walked or
// waiting for the worker, ahead of the block being timed.
const pipeDepth = CancelCheckEvery / phaseBlock

// walkBlock is one block of the pipeline: decoded accesses and their log.
// A block the worker sends back with panicked set carries a panic of walk.
type walkBlock struct {
	acc      [phaseBlock]memsys.Access
	n        int
	log      walkLog
	panicked any
}

// blockPool recycles walkBlocks across runs, so a campaign's short cells
// do not each allocate the pipeline's buffers. A block from a machine
// with fewer levels grows its victim list on first need.
var blockPool sync.Pool

// walker is the worker goroutine: it walks each block it receives and
// sends it back, in order, until todo closes or walk panics. It closes
// done when it returns.
func (s *System) walker(todo <-chan *walkBlock, done chan<- *walkBlock) {
	defer close(done)
	defer func() {
		// done has room: the panicking block was never sent back.
		if p := recover(); p != nil {
			done <- &walkBlock{panicked: p}
		}
	}()
	for b := range todo {
		s.walk(b.acc[:b.n], &b.log)
		done <- b
	}
}

// RunContext is Run with cooperative cancellation, block decoding and a
// two-stage pipeline. The caller's goroutine pulls accesses from the
// generator a block at a time (through trace.NextBlock) and hands each
// block to a worker goroutine that runs walk on it; the caller then runs
// the timing half over every block the worker has finished, in stream
// order. The two halves share no state, and workload generators are pure
// streams that never observe simulator state, so Results are bit-identical
// to a serial Step loop over the same accesses.
//
// At most CancelCheckEvery accesses are in flight. The pipeline drains —
// the worker is not handed accesses past the point — at every sampler
// interval boundary, at the end of the stream or of maxAccesses, and on
// cancellation, so every sample, and the Results, see the two halves at
// the same access. The context is checked once per timed block; on
// cancellation the in-flight blocks are timed and the partial Results are
// returned with ctx.Err(). A Background (or otherwise non-cancellable)
// context costs nothing — its nil Done channel skips the poll. A stream
// that failed rather than ended (trace.Err, e.g. a damaged trace file)
// returns its error with the partial Results. The worker is joined before
// RunContext returns or panics, and a panic of walk is raised again on
// the caller.
func (s *System) RunContext(ctx context.Context, gen trace.Generator, maxAccesses uint64) (Results, error) {
	defer trace.CloseIfCloser(gen)
	free := make([]*walkBlock, pipeDepth)
	for i := range free {
		b, _ := blockPool.Get().(*walkBlock)
		if b == nil {
			b = &walkBlock{log: newWalkLog(phaseBlock, len(s.specs))}
		}
		free[i] = b
	}
	defer func() {
		for _, b := range free {
			blockPool.Put(b)
		}
	}()
	// Both channels hold every block, so no send ever blocks.
	todo := make(chan *walkBlock, pipeDepth)
	done := make(chan *walkBlock, pipeDepth)
	go s.walker(todo, done)
	defer func() {
		close(todo)
		for range done {
		}
	}()

	cancelled := ctx.Done()
	timed := s.phases != nil
	issued, inflight := s.accesses, 0
	bound := s.drainAt(maxAccesses)
	ended, stopped := false, false
	for {
		// Keep the worker fed up to the next drain point.
		for len(free) > 0 && !ended && !stopped && issued < bound {
			b := free[len(free)-1]
			want := min(bound-issued, phaseBlock)
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			n := 0
			for uint64(n) < want {
				m := trace.NextBlock(gen, b.acc[n:want])
				if m == 0 {
					break
				}
				n += m
			}
			if timed {
				s.phases.Add(telemetry.PhaseDecode, time.Since(t0))
			}
			ended = uint64(n) < want
			if n == 0 {
				break
			}
			free = free[:len(free)-1]
			b.n = n
			todo <- b
			issued += uint64(n)
			inflight++
		}
		if inflight == 0 {
			break
		}

		var t1 time.Time
		if timed {
			t1 = time.Now()
		}
		b := <-done
		if b.panicked != nil {
			panic(b.panicked)
		}
		inflight--
		v := b.log.victims
		for i, a := range b.acc[:b.n] {
			r := b.log.recs[i]
			s.timeAccess(a, r, v)
			v = v[r.top+r.low:]
		}
		free = append(free, b)
		if timed {
			s.phases.Add(telemetry.PhaseStep, time.Since(t1))
			s.phases.AddAccesses(uint64(b.n))
		}
		if s.sampler != nil {
			s.sampler.MaybeSample(s.accesses)
			bound = s.drainAt(maxAccesses)
		}
		if cancelled != nil && !stopped {
			select {
			case <-cancelled:
				stopped = true
			default:
			}
		}
	}
	res := s.finishRun(gen.Name())
	if stopped {
		return res, ctx.Err()
	}
	return res, trace.Err(gen)
}

// drainAt is the access count the pipeline must not walk past before the
// timing half catches up: maxAccesses, or the sampler's next interval
// boundary when that comes first, so every row lands on an exact multiple.
func (s *System) drainAt(maxAccesses uint64) uint64 {
	if s.sampler == nil {
		return maxAccesses
	}
	iv := s.sampler.Interval()
	return min(maxAccesses, (s.accesses/iv+1)*iv)
}

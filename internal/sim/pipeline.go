package sim

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
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

// pipeDepth is how many blocks a run keeps in flight, walked or waiting
// for the worker, ahead of the block being timed.
const pipeDepth = CancelCheckEvery / phaseBlock

// walkBlock is one block of the pipeline: decoded accesses and their log.
// A block the worker sends back with panicked set carries a panic of walk.
// left counts the lanes that have yet to time the block.
type walkBlock struct {
	acc      [phaseBlock]memsys.Access
	n        int
	log      walkLog
	panicked any
	left     atomic.Int32
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

// TimingPanic is a panic of one member's timing half in a group run of
// several systems. RunGroup recovers it and returns it as that member's
// error, and the other members finish the run.
type TimingPanic struct {
	Value any
	Stack []byte
}

func (p *TimingPanic) Error() string { return fmt.Sprintf("sim: panic in timing half: %v", p.Value) }

// member is one system of a group run. err is set once its timing half
// panicked; the member is then timed no further.
type member struct {
	s   *System
	err *TimingPanic
}

// time runs m's timing half over a walked block. With guard set, a panic
// fails m alone.
func (m *member) time(b *walkBlock, guard bool) {
	if m.err != nil {
		return
	}
	if guard {
		defer func() {
			if p := recover(); p != nil {
				m.err = &TimingPanic{Value: p, Stack: debug.Stack()}
			}
		}()
	}
	s := m.s
	var t0 time.Time
	if s.phases != nil {
		t0 = time.Now()
	}
	v := b.log.victims
	for i, a := range b.acc[:b.n] {
		r := b.log.recs[i]
		s.timeAccess(a, r, v)
		v = v[r.top+r.low:]
	}
	if s.phases != nil {
		s.phases.Add(telemetry.PhaseStep, time.Since(t0))
		s.phases.AddAccesses(uint64(b.n))
	}
}

// lane is the members one goroutine times.
type lane []*member

// timeLane is a helper goroutine: it times its lane over every block it
// receives, in stream order, and hands a block back on recycled once
// every lane has timed it.
func timeLane(l lane, in <-chan *walkBlock, recycled chan<- *walkBlock, wg *sync.WaitGroup) {
	defer wg.Done()
	for b := range in {
		for _, m := range l {
			m.time(b, true)
		}
		if b.left.Add(-1) == 0 {
			recycled <- b
		}
	}
}

// deal spreads the members over the caller's lane and at most helpers
// more, round robin from the first member, which the caller times. The
// deal moves host time only; no member's Results depend on its lane.
func deal(members []*member, helpers int) []lane {
	lanes := make([]lane, min(helpers+1, len(members)))
	for i, m := range members {
		lanes[i%len(lanes)] = append(lanes[i%len(lanes)], m)
	}
	return lanes
}

// RunContext is Run with cooperative cancellation, block decoding and a
// two-stage pipeline: RunGroup with s as its only system.
func (s *System) RunContext(ctx context.Context, gen trace.Generator, maxAccesses uint64) (Results, error) {
	res, errs := RunGroup(ctx, gen, maxAccesses, []*System{s}, 0)
	return res[0], errs[0]
}

// RunGroup runs one access stream through several systems that share a
// machine's on-chip hierarchy (DESIGN.md §11, "One walk, many designs").
// systems[0] walks the stream on its hierarchy; every other system is one
// of its Members and times the same walk with its own secure-memory side.
// Each system's Results equal those of its own RunContext over the stream.
//
// The pipeline has three stages. The caller's goroutine pulls accesses
// from the generator a block at a time (through trace.NextBlock) and hands
// each block to a worker goroutine that runs walk on it. The timing halves
// then run over every walked block, in stream order: the caller times
// systems[0] and its share of the others, and up to helpers more
// goroutines time the rest (see deal). Walk and timing share no state,
// and workload generators are pure streams that never observe simulator
// state, so the Results are bit-identical to a serial Step loop over the
// same accesses.
//
// At most CancelCheckEvery accesses are in flight. The pipeline drains —
// the worker is not handed accesses past the point — at every interval
// boundary of systems[0]'s sampler (the only one a group may carry), at
// the end of the stream or of maxAccesses, and on cancellation, so every
// sample, and the Results, see the stages at the same access. The context
// is checked once per block the caller times; on cancellation the
// in-flight blocks are timed and every system's partial Results are
// returned with ctx.Err(). A Background (or otherwise non-cancellable)
// context costs nothing — its nil Done channel skips the poll. A stream
// that failed rather than ended (trace.Err, e.g. a damaged trace file)
// returns its error with the partial Results. The worker and the helpers
// are joined before RunGroup returns or panics. A panic of the stream or
// of walk is raised again on the caller. With more than one system, a
// panic of one system's timing half is returned as its *TimingPanic with
// zero Results, and the others run on; a lone system's panics propagate.
func RunGroup(ctx context.Context, gen trace.Generator, maxAccesses uint64, systems []*System, helpers int) ([]Results, []error) {
	defer trace.CloseIfCloser(gen)
	w := systems[0]
	members := make([]*member, len(systems))
	for i, s := range systems {
		if i > 0 && (s.walkedBy != w || s.sampler != nil) {
			panic(fmt.Sprintf("sim: group system %d is not a sampler-free Member of the first", i))
		}
		members[i] = &member{s: s}
	}
	if w.walkedBy != nil {
		panic("sim: a group's first system must have its own hierarchy")
	}
	guard := len(members) > 1
	lanes := deal(members, helpers)

	free := make([]*walkBlock, pipeDepth)
	for i := range free {
		b, _ := blockPool.Get().(*walkBlock)
		if b == nil {
			b = &walkBlock{log: newWalkLog(phaseBlock, len(w.specs))}
		}
		free[i] = b
	}
	defer func() {
		for _, b := range free {
			blockPool.Put(b)
		}
	}()
	// Every channel holds every block, so no send ever blocks.
	todo := make(chan *walkBlock, pipeDepth)
	done := make(chan *walkBlock, pipeDepth)
	go w.walker(todo, done)
	defer func() {
		close(todo)
		for range done {
		}
	}()
	recycled := make(chan *walkBlock, pipeDepth)
	ins := make([]chan *walkBlock, len(lanes)-1)
	var wg sync.WaitGroup
	for i := range ins {
		ins[i] = make(chan *walkBlock, pipeDepth)
		wg.Add(1)
		go timeLane(lanes[i+1], ins[i], recycled, &wg)
	}
	joined := false
	join := func() {
		if !joined {
			joined = true
			for _, in := range ins {
				close(in)
			}
			wg.Wait()
		}
	}
	defer join()

	cancelled := ctx.Done()
	timed := w.phases != nil
	issued, inflight := w.accesses, 0
	bound := w.drainAt(maxAccesses)
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
				w.phases.Add(telemetry.PhaseDecode, time.Since(t0))
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

		// Wait for the next walked block, or for a helper to hand one
		// back. The wait is booked as the first system's step time.
		var t1 time.Time
		if timed {
			t1 = time.Now()
		}
		var b *walkBlock
		select {
		case b = <-done:
		case r := <-recycled:
			free = append(free, r)
			inflight--
		}
		if timed {
			w.phases.Add(telemetry.PhaseStep, time.Since(t1))
		}
		if b == nil {
			continue // a helper handed a block back
		}
		if b.panicked != nil {
			panic(b.panicked)
		}
		b.left.Store(int32(len(lanes)))
		for _, in := range ins {
			in <- b
		}
		for _, m := range lanes[0] {
			m.time(b, guard)
		}
		if b.left.Add(-1) == 0 {
			free = append(free, b)
			inflight--
		}
		if w.sampler != nil {
			w.sampler.MaybeSample(w.accesses)
			bound = w.drainAt(maxAccesses)
		}
		if cancelled != nil && !stopped {
			select {
			case <-cancelled:
				stopped = true
			default:
			}
		}
	}
	join()
	err := trace.Err(gen)
	if stopped {
		err = ctx.Err()
	}
	res := make([]Results, len(members))
	errs := make([]error, len(members))
	for i, m := range members {
		if m.err != nil {
			errs[i] = m.err
			continue
		}
		res[i], errs[i] = m.s.finishRun(gen.Name()), err
	}
	return res, errs
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

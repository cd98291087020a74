package main

import (
	"fmt"
	"reflect"

	"cosmos/internal/cache"
	"cosmos/internal/core"
	"cosmos/internal/ctr"
	"cosmos/internal/integrity"
	"cosmos/internal/memsys"
	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/trace"
)

// replay re-implements sim.System.Step from the layers' public calls, so the
// benchmark can put a span around every call an access makes: the cache
// level probes (with each level's writeback link wrapped to record
// writebacks as child spans), the secure-memory engine's counter, data, MAC
// and wasted-fetch calls, and the data-location predictor. It supports the
// classic three-level machine without a fault plane, which is what every
// workload runs. It must make exactly the calls Step makes, in the same
// order: the traced run and TestReplayMatchesSystem compare its Results
// with the real System's and fail on the first field that differs.
type replay struct {
	cfg    sim.Config
	design secmem.Design
	eng    *secmem.Engine
	layout *integrity.SecureLayout // the engine's metadata layout; nil for NP

	chains      [][]*cache.Level
	lats        [3]uint64
	walkLat     uint64
	secureAll   bool
	secureBound uint64

	threadCycles []uint64
	demand       [3]struct{ accesses, misses uint64 }

	accesses, reads, writes        uint64
	offChip, fetchLatSum, bypassed uint64

	// The counter-block stream of every CtrAccess, and the blocks of those
	// that missed, for the isolated predictor and Merkle-path replays.
	ctrBlocks []uint64
	ctrMisses []uint64

	// bareNs sums the step durations of the bare-span sample that were not
	// interrupted, bare counts them.
	bareNs, bare float64

	t *tracer
}

func newReplay(cfg sim.Config, design secmem.Design, t *tracer) *replay {
	cfg.MC.Cores = cfg.Cores
	r := &replay{cfg: cfg, design: design, t: t}
	r.eng = secmem.NewEngine(cfg.MC, design)
	if design.Secure {
		coverage := ctr.Morph().LinesPerBlock
		if cfg.MC.MEETree {
			coverage = 8
		}
		r.layout = integrity.NewSecureLayout(cfg.MC.MemBytes, coverage)
		if cfg.MC.SecureRegionBytes == 0 {
			r.secureAll = true
		} else {
			r.secureBound = cfg.MC.SecureRegionBytes
		}
	}
	r.lats = [3]uint64{cfg.L1Lat, cfg.L2Lat, cfg.LLCLat}
	r.walkLat = cfg.L2Lat + cfg.LLCLat

	term := &termLevel{Level: secmem.NewLevel(r.eng), r: r}
	llc := cache.NewLevel(cache.New("llc", cfg.LLCBytes, cfg.LLCWays, cache.NewLRU()), cfg.LLCLat, term)
	llcLink := &wbLevel{Level: llc, r: r, span: spanLLCWriteback}
	for c := 0; c < cfg.Cores; c++ {
		l2 := cache.NewLevel(cache.New("l2", cfg.L2Bytes, cfg.L2Ways, cache.NewLRU()), cfg.L2Lat, llcLink)
		l2Link := &wbLevel{Level: l2, r: r, span: spanL2Writeback}
		l1 := cache.NewLevel(cache.New("l1", cfg.L1Bytes, cfg.L1Ways, cache.NewLRU()), cfg.L1Lat, l2Link)
		r.chains = append(r.chains, []*cache.Level{l1, l2, llc})
	}
	r.threadCycles = make([]uint64, cfg.Cores)
	return r
}

// wbLevel forwards an on-chip level's writeback link, recording each
// writeback it receives as a span.
type wbLevel struct {
	memsys.Level
	r    *replay
	span spanName
}

func (l *wbLevel) Writeback(req memsys.Request) {
	sp := l.r.t.begin(l.span)
	l.Level.Writeback(req)
	l.r.t.end(sp)
}

// termLevel forwards the LLC's writeback link into the secure-memory
// terminal, recording the writeback as a span and noting the counter access
// the terminal makes for a protected line.
type termLevel struct {
	memsys.Level
	r *replay
}

func (l *termLevel) Writeback(req memsys.Request) {
	r := l.r
	misses := r.eng.CtrMisses
	sp := r.t.begin(spanSecmemWriteback)
	l.Level.Writeback(req)
	r.t.end(sp)
	if r.eng.InSecureRegion(memsys.LineToAddr(req.Line)) {
		r.noteCtr(req.Line, r.eng.CtrMisses != misses)
	}
}

func (r *replay) noteCtr(dataLine uint64, miss bool) {
	b := r.layout.CtrBlockOf(dataLine)
	r.ctrBlocks = append(r.ctrBlocks, b)
	if miss {
		r.ctrMisses = append(r.ctrMisses, b)
	}
}

// run steps the next n accesses of gen, block by block like
// System.RunContext.
func (r *replay) run(gen trace.Generator, n uint64) {
	var buf [driveBlock]memsys.Access
	for end := r.accesses + n; r.accesses < end; {
		m := fill(gen, buf[:min(end-r.accesses, driveBlock)])
		for _, a := range buf[:m] {
			r.step(a)
		}
		if m == 0 {
			break
		}
	}
}

// fill decodes up to len(dst) accesses, the way RunContext fills a block.
func fill(gen trace.Generator, dst []memsys.Access) int {
	n := 0
	for n < len(dst) {
		m := trace.NextBlock(gen, dst[n:])
		if m == 0 {
			break
		}
		n += m
	}
	return n
}

// step is sim.System.Step. An access in the span sample gets a root span
// whose children are the layer calls; one in the bare sample is only timed
// as a whole.
func (r *replay) step(a memsys.Access) {
	switch sample(r.accesses) {
	case spanBucket:
		r.t.startAccess(r.accesses, true)
		root := r.t.begin(spanStep)
		r.stepCalls(a)
		r.t.end(root)
		r.t.finishAccess()
	case bareBucket:
		k0 := ticks()
		r.stepCalls(a)
		if ns := r.t.ns(ticks() - k0); ns <= interruptedNs {
			r.bareNs += ns
			r.bare++
		}
	default:
		r.stepCalls(a)
	}
}

func (r *replay) stepCalls(a memsys.Access) {
	c := int(a.Thread) % r.cfg.Cores
	now := r.threadCycles[c]
	write := a.Type == memsys.Write
	line := a.Addr.Line()
	chain := r.chains[c]

	r.accesses++
	if write {
		r.writes++
	} else {
		r.reads++
	}
	r.demand[0].accesses++
	lat := r.lats[0]
	if r.probe(0, chain[0], line, write, a.Region, c, now) {
		r.advance(c, write, a.Dep, lat)
		return
	}
	r.demand[0].misses++

	p := r.planFetch(c, now, line, a.Addr)
	for i := 1; i < len(chain); i++ {
		r.demand[i].accesses++
		hit := r.probe(i, chain[i], line, false, a.Region, c, now)
		lat += r.lats[i]
		if hit {
			r.gradeOnChipHit(p, now, a.Addr, write, i == len(chain)-1)
			r.advance(c, write, a.Dep, lat)
			return
		}
		r.demand[i].misses++
	}

	fetchEnd := r.composeFetch(c, now, line, a.Addr, p)
	lat = r.lats[0] + fetchEnd
	r.offChip++
	r.fetchLatSum += fetchEnd
	if p.predictedOff {
		r.bypassed++
	}
	r.advance(c, write, a.Dep, lat)
}

var probeSpans = [3]spanName{spanL1Probe, spanL2Probe, spanLLCProbe}

func (r *replay) probe(level int, l *cache.Level, line uint64, write bool, sig uint16, c int, now uint64) bool {
	sp := r.t.begin(probeSpans[level])
	hit := l.Probe(line, write, sig, c, now)
	r.t.end(sp)
	return hit
}

// plan is sim's fetchPlan: the decisions taken at the L1-miss point.
type plan struct {
	secure, predictedOff, earlyCtr bool
	pred                           core.Prediction
	ctr                            secmem.CtrResult
}

func (r *replay) planFetch(c int, now, line uint64, addr memsys.Addr) plan {
	var p plan
	p.secure = r.secureAll || uint64(addr) < r.secureBound
	switch r.design.Early {
	case secmem.EarlyPredicted:
		sp := r.t.begin(spanDataPredict)
		p.pred = r.eng.DataPred.Predict(uint64(addr))
		r.t.end(sp)
		p.predictedOff = p.pred.OffChip
		if p.predictedOff && p.secure {
			p.ctr = r.ctrAccess(c, now, line)
			p.earlyCtr = true
		}
	case secmem.EarlyAll:
		if p.secure {
			p.ctr = r.ctrAccess(c, now, line)
			p.earlyCtr = true
		}
	}
	return p
}

func (r *replay) learn(p core.Prediction, offChip bool) {
	sp := r.t.begin(spanDataLearn)
	r.eng.DataPred.Learn(p, offChip)
	r.t.end(sp)
}

func (r *replay) ctrAccess(c int, now, line uint64) secmem.CtrResult {
	sp := r.t.begin(spanCtrAccess)
	res := r.eng.CtrAccess(c, now, line, false)
	r.t.end(sp)
	r.noteCtr(line, !res.Hit)
	return res
}

func (r *replay) gradeOnChipHit(p plan, now uint64, addr memsys.Addr, write, lastLevel bool) {
	if r.design.Early != secmem.EarlyPredicted {
		return
	}
	r.learn(p.pred, false)
	if p.predictedOff && (lastLevel || !write) {
		sp := r.t.begin(spanWastedFetch)
		r.eng.WastedFetch(now, addr)
		r.t.end(sp)
	}
}

// composeFetch resolves an all-miss plan and returns the fetch's critical
// path end relative to the L1-miss point (sim's fetchPath.finish).
func (r *replay) composeFetch(c int, now, line uint64, addr memsys.Addr, p plan) uint64 {
	if r.design.Early == secmem.EarlyPredicted {
		r.learn(p.pred, true)
	}
	res := p.ctr
	if !p.earlyCtr && p.secure {
		res = r.ctrAccess(c, now, line)
	}
	sp := r.t.begin(spanDataDRAM)
	dataLat := r.eng.DataDRAM(now, addr, false)
	r.t.end(sp)
	var ctrLat uint64
	if p.secure {
		sp := r.t.begin(spanMACAccess)
		r.eng.MACAccess(c, now, line, false)
		r.t.end(sp)
		ctrLat = res.Latency + r.cfg.MC.AESLat
	}

	dataReady := r.walkLat + dataLat
	if p.predictedOff {
		dataReady = max(r.walkLat, dataLat)
	}
	if !p.secure {
		return dataReady
	}
	ctrStart := r.walkLat
	if p.earlyCtr {
		ctrStart = 0
	}
	return max(dataReady, ctrStart+ctrLat) + 1
}

func (r *replay) advance(c int, write, dep bool, lat uint64) {
	l1 := r.lats[0]
	stall := lat
	switch {
	case write:
		stall = l1
	case dep:
	case lat > l1:
		stall = l1 + (lat-l1)/r.cfg.MLP
	}
	r.threadCycles[c] += r.cfg.NonMemCycles + stall
}

func missRate(accesses, misses uint64) float64 {
	if accesses == 0 {
		return 0
	}
	return float64(misses) / float64(accesses)
}

// results is sim.System.Results over the replayed state.
func (r *replay) results(workload string) sim.Results {
	var maxCycles uint64
	for _, cyc := range r.threadCycles {
		maxCycles = max(maxCycles, cyc)
	}
	e := r.eng
	res := sim.Results{
		Design:       r.design.Name,
		Workload:     workload,
		Accesses:     r.accesses,
		Reads:        r.reads,
		Writes:       r.writes,
		Instructions: r.accesses * r.cfg.InstrPerAccess,
		Cycles:       maxCycles,
		L1MissRate:   missRate(r.demand[0].accesses, r.demand[0].misses),
		L2MissRate:   missRate(r.demand[1].accesses, r.demand[1].misses),
		LLCMissRate:  missRate(r.demand[2].accesses, r.demand[2].misses),
		CtrAccesses:  e.CtrHits + e.CtrMisses,
		CtrMissRate:  e.CtrMissRate(),
		OffChipReads: r.offChip,
		Bypassed:     r.bypassed,
		Traffic:      e.Traffic,
		DRAM:         e.DRAMStats(),
		Prefetch:     e.PrefetchStats(),
		SMAT:         r.smat(),
	}
	if maxCycles > 0 {
		res.IPC = float64(res.Instructions) / float64(maxCycles)
	}
	if r.offChip > 0 {
		res.BypassRate = float64(r.bypassed) / float64(r.offChip)
		res.AvgFetchLat = float64(r.fetchLatSum) / float64(r.offChip)
	}
	if e.DataPred != nil {
		st := e.DataPred.Stats
		res.DataPred = &st
	}
	if e.CtrPred != nil {
		st := e.CtrPred.Stats
		res.CtrPred = &st
	}
	return res
}

// smat is sim's Eq 1-2 evaluation, term for term in the same order so the
// float result is bit-identical.
func (r *replay) smat() float64 {
	cfg := r.cfg
	d := r.eng.DRAMStats()
	rowHit := d.RowHitRate()
	dramLat := float64(cfg.MC.DRAM.TCAS+cfg.MC.DRAM.TBus+cfg.MC.DRAM.Queue)*rowHit +
		float64(cfg.MC.DRAM.TRP+cfg.MC.DRAM.TRCD+cfg.MC.DRAM.TCAS+cfg.MC.DRAM.TBus+cfg.MC.DRAM.Queue)*(1-rowHit)

	var ctrTerm float64
	if r.design.Secure {
		mrCtr := r.eng.CtrMissRate()
		verify := float64(cfg.MC.AuthLat)
		ctrTerm = float64(cfg.MC.CtrHitLat) + mrCtr*(dramLat+verify)
		ctrTerm += float64(cfg.MC.AESLat)
	}
	var b float64
	if r.demand[0].misses > 0 {
		b = float64(r.bypassed) / float64(r.demand[0].misses)
	}
	direct := ctrTerm + dramLat
	walked := direct
	for i := len(r.lats) - 1; i >= 1; i-- {
		walked = float64(r.lats[i]) + missRate(r.demand[i].accesses, r.demand[i].misses)*walked
	}
	return float64(r.lats[0]) + missRate(r.demand[0].accesses, r.demand[0].misses)*((1-b)*walked+b*direct)
}

// firstDiff names the first field, in declaration order, where two values
// differ ("" when they are equal), descending into structs and pointers.
func firstDiff(a, b any) string {
	return diffValue("", reflect.ValueOf(a), reflect.ValueOf(b))
}

func diffValue(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		return diffValue(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			if d := diffValue(name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			return fmt.Sprintf("%s (%v vs %v)", path, a.Interface(), b.Interface())
		}
		return ""
	}
}

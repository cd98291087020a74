package secmem

import (
	"fmt"

	"cosmos/internal/cache"
	"cosmos/internal/core"
	"cosmos/internal/ctr"
	"cosmos/internal/dram"
	"cosmos/internal/integrity"
	"cosmos/internal/memsys"
	"cosmos/internal/prefetch"
	"cosmos/internal/telemetry"
)

// NewEngine builds the controller for a design point.
func NewEngine(cfg Config, design Design) *Engine {
	e := &Engine{cfg: cfg, design: design}
	e.dram = dram.New(cfg.DRAM)
	if !design.Secure {
		return e
	}
	coverage := ctr.Morph().LinesPerBlock
	if cfg.MEETree {
		coverage = 8 // tree leaves cover 8-line groups, SGX-MEE style
	}
	e.layout = integrity.NewSecureLayout(cfg.MemBytes, coverage)
	e.ctrStore = ctr.NewStore(ctr.Morph())

	ctrBytes := design.CtrCacheBytes
	if ctrBytes == 0 {
		// Every COSMOS variant runs the small 128KB cache (its 147KB of
		// predictor state is the rest of its budget); baselines get the
		// budget-matched 512KB cache (§5).
		if design.UseLCR || design.Early == EarlyPredicted {
			ctrBytes = cfg.LCRCacheBytes
		} else {
			ctrBytes = cfg.CtrCacheBytes
		}
	}
	for c := 0; c < cfg.Cores; c++ {
		var pol cache.Policy
		var lcr *cache.LCR
		switch {
		case design.UseLCR:
			lcr = cache.NewLCR()
			pol = lcr
		case design.CtrPolicy != "":
			pol = policyByName(design.CtrPolicy, cfg.Seed)
		default:
			pol = cache.NewLRU()
		}
		e.ctrCaches = append(e.ctrCaches, cache.New("ctr", ctrBytes, cfg.CtrCacheWays, pol))
		e.lcrPols = append(e.lcrPols, lcr)
		e.macCaches = append(e.macCaches, cache.New("mac", cfg.MACCacheBytes, 8, cache.NewLRU()))
	}

	switch design.Early {
	case EarlyPredicted:
		e.DataPred = core.NewDataPredictor(cfg.Params)
	}
	if design.UseLCR {
		e.CtrPred = core.NewLocalityPredictor(cfg.Params)
	}
	switch design.CtrPrefetcher {
	case "nextline":
		e.pf = prefetch.NewNextLine()
	case "stride":
		e.pf = prefetch.NewStride(1)
	case "berti":
		e.pf = prefetch.NewBerti()
	case "":
	default:
		panic(fmt.Sprintf("secmem: unknown prefetcher %q", design.CtrPrefetcher))
	}
	if e.pf != nil {
		e.pfMark = make(map[uint64]bool)
	}
	return e
}

func policyByName(name string, seed uint64) cache.Policy {
	switch name {
	case "LRU":
		return cache.NewLRU()
	case "Random":
		return cache.NewRandom(seed | 1)
	case "RRIP":
		return cache.NewRRIP()
	case "SHiP":
		return cache.NewSHiP()
	case "Mockingjay":
		return cache.NewMockingjay()
	case "LFU":
		return cache.NewLFU()
	case "DRRIP":
		return cache.NewDRRIP()
	}
	panic(fmt.Sprintf("secmem: unknown ctr policy %q", name))
}

// RegisterMetrics registers the full memory-controller metric set under the
// given telemetry scope: aggregate CTR cache behaviour, the Fig 2 traffic
// decomposition, the DRAM model, per-core metadata caches, the RL
// predictors, the prefetcher, and a histogram of MT verification walk depth
// (DRAM node fetches per walk). Registration is sample-pull only except the
// walk-depth histogram, which is nil-guarded on the hot path.
func (e *Engine) RegisterMetrics(s *telemetry.Scope) {
	ctrS := s.Scope("ctr")
	ctrS.Counter("hits", &e.CtrHits)
	ctrS.Counter("misses", &e.CtrMisses)
	ctrS.Rate("hit_rate",
		func() uint64 { return e.CtrHits },
		func() uint64 { return e.CtrHits + e.CtrMisses })
	ctrS.Rate("miss_rate",
		func() uint64 { return e.CtrMisses },
		func() uint64 { return e.CtrHits + e.CtrMisses })

	t := s.Scope("traffic")
	t.Counter("data_read", &e.Traffic.DataRead)
	t.Counter("data_write", &e.Traffic.DataWrite)
	t.Counter("ctr_read", &e.Traffic.CtrRead)
	t.Counter("ctr_write", &e.Traffic.CtrWrite)
	t.Counter("mt_read", &e.Traffic.MTRead)
	t.Counter("mac_read", &e.Traffic.MACRead)
	t.Counter("mac_write", &e.Traffic.MACWrite)
	t.Counter("reenc_write", &e.Traffic.ReEncWrite)
	t.Counter("wasted_fetch", &e.Traffic.WastedDataFetch)
	t.CounterFunc("total", func() uint64 { return e.Traffic.Total() })

	re := s.Scope("reenc")
	re.Counter("overflow_events", &e.ReEnc.OverflowEvents)
	re.Counter("overflow_lines", &e.ReEnc.OverflowLines)
	re.Counter("stall_cycles", &e.ReEnc.StallCycles)

	e.dram.RegisterMetrics(s.Scope("dram"))

	for i, cc := range e.ctrCaches {
		cc.RegisterMetrics(s.Scope(fmt.Sprintf("ctr_cache%d", i)))
	}
	for i, mc := range e.macCaches {
		mc.RegisterMetrics(s.Scope(fmt.Sprintf("mac_cache%d", i)))
	}

	if e.DataPred != nil {
		e.DataPred.RegisterMetrics(s.Scope("data_pred"))
	}
	if e.CtrPred != nil {
		e.CtrPred.RegisterMetrics(s.Scope("ctr_pred"))
	}
	if e.pf != nil {
		pfS := s.Scope("prefetch")
		pfS.Counter("issued", &e.pfStats.Issued)
		pfS.Counter("useful", &e.pfStats.Useful)
		pfS.RateOf("accuracy", &e.pfStats.Useful, &e.pfStats.Issued)
	}
	if e.design.Secure {
		e.walkHist = s.Histogram("mt.walk_depth")
	}
}

// Design returns the configured design point.
func (e *Engine) Design() Design { return e.design }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// DRAMStats exposes the DRAM model's counters.
func (e *Engine) DRAMStats() dram.Stats { return e.dram.Stats }

// CtrMissRate is the aggregate CTR-cache miss rate across cores.
func (e *Engine) CtrMissRate() float64 {
	t := e.CtrHits + e.CtrMisses
	if t == 0 {
		return 0
	}
	return float64(e.CtrMisses) / float64(t)
}

// PrefetchStats returns CTR-prefetcher accuracy counters (Fig 5).
func (e *Engine) PrefetchStats() prefetch.Stats { return e.pfStats }

// AttachSpans connects a span recorder: the engine's metadata-path events
// annotate it with typed causes (see telemetry.SpanCause). Nil (the
// default) keeps every path bit-identical and allocation-free.
func (e *Engine) AttachSpans(rec *telemetry.SpanRecorder) { e.spans = rec }

// DataDRAM performs a 64B data access in DRAM and returns its latency.
// Wasted (killed) fetches from mispredictions use WastedFetch.
func (e *Engine) DataDRAM(now uint64, addr memsys.Addr, write bool) uint64 {
	if write {
		e.Traffic.DataWrite++
	} else {
		e.Traffic.DataRead++
	}
	return e.dram.Access(now, uint64(addr), write)
}

// WastedFetch charges DRAM for a speculative data fetch that was killed
// after the line turned out to be on-chip (Algorithm 3 line 11): the bank
// was occupied but no latency lands on the critical path.
func (e *Engine) WastedFetch(now uint64, addr memsys.Addr) {
	e.Traffic.WastedDataFetch++
	e.dram.Access(now, uint64(addr), false)
}

// CtrResult reports the outcome of a counter access.
type CtrResult struct {
	Hit bool
	// Latency is the time until the OTP could start: cache hit latency or
	// the CTR DRAM fetch (+combination). MT verification runs off the
	// critical path (§5) and contributes traffic, not latency.
	Latency uint64
	// Good/Score carry the locality classification for LCR designs.
	Good  bool
	Score uint8
}

// CtrAccess runs one counter access for a data line on core `c`: metadata
// cache lookup, locality classification (LCR designs), DRAM fetch plus MT
// traversal on a miss, counter increment on writes (with MorphCtr overflow
// re-encryption), and optional prefetching (Fig 5 study).
func (e *Engine) CtrAccess(c int, now uint64, dataLine uint64, write bool) CtrResult {
	cc := e.ctrCaches[c]
	ctrAddr := e.layout.CtrAddr(dataLine)
	ctrLine := ctrAddr.Line()
	ctrBlock := e.layout.CtrBlockOf(dataLine)

	var res CtrResult
	// Locality classification happens on every CTR access (Algorithm 1).
	if e.CtrPred != nil {
		cls := e.CtrPred.Observe(ctrBlock)
		res.Good, res.Score = cls.Good, cls.Score
	}

	r := cc.Access(ctrLine, write, sigCtr)
	if r.Evicted && r.EvictedDirty {
		e.Traffic.CtrWrite++
		e.dram.Access(now, r.EvictedLine<<memsys.LineOffsetBits, true)
	}
	if r.Hit {
		e.CtrHits++
		res.Hit = true
		res.Latency = e.cfg.CtrHitLat + e.cfg.CombineLat
		if e.pfMark != nil && e.pfMark[ctrLine] {
			delete(e.pfMark, ctrLine)
			e.pfStats.Useful++
		}
		if e.spans != nil {
			e.spans.Note(telemetry.CauseCtrHit, res.Latency, 0)
		}
	} else {
		e.CtrMisses++
		lat := e.dram.Access(now, uint64(ctrAddr), false)
		e.Traffic.CtrRead++
		e.verifyPath(c, now, ctrBlock)
		res.Latency = lat + e.cfg.CombineLat
		if e.pfMark != nil {
			delete(e.pfMark, ctrLine)
		}
		if e.spans != nil {
			e.spans.Note(telemetry.CauseCtrMiss, res.Latency, 0)
		}
	}
	if e.lcrPols[c] != nil && e.CtrPred != nil {
		e.lcrPols[c].SetHint(r.Set, r.Way, res.Good, res.Score)
	}

	if write {
		e.incrementCounter(now, dataLine)
	}
	if e.pf != nil {
		e.prefetchCtr(c, now, ctrLine)
	}
	return res
}

// sigCtr / sigMT / sigMAC tag metadata accesses for PC-indexed policies.
const (
	sigCtr uint16 = 60001
	sigMT  uint16 = 60002
	sigMAC uint16 = 60003
)

// verifyPath walks the counter block's Merkle path leaf→root through the
// metadata cache, fetching missing nodes from DRAM. With stop-at-hit
// semantics the walk ends at the first cached node (its integrity is
// already established); FullTraversal fetches every node, matching the
// paper's accounting.
func (e *Engine) verifyPath(c int, now uint64, ctrBlock uint64) {
	e.pathBuf = e.layout.Tree.PathNodes(ctrBlock, e.pathBuf)
	if e.cfg.FullTraversal {
		// Paper-style accounting: every path node is fetched from DRAM
		// on every CTR miss (no MT caching assumed).
		for _, nodeAddr := range e.pathBuf {
			e.Traffic.MTRead++
			e.dram.Access(now, uint64(nodeAddr), false)
		}
		if e.walkHist != nil {
			e.walkHist.Observe(uint64(len(e.pathBuf)))
		}
		if e.spans != nil {
			e.spans.Note(telemetry.CauseMTWalk, 0, uint64(len(e.pathBuf)))
		}
		return
	}
	cc := e.ctrCaches[c]
	var fetched uint64
	for depth, nodeAddr := range e.pathBuf {
		r := cc.Access(nodeAddr.Line(), false, sigMT)
		if r.Evicted && r.EvictedDirty {
			e.Traffic.CtrWrite++
			e.dram.Access(now, r.EvictedLine<<memsys.LineOffsetBits, true)
		}
		if e.lcrPols[c] != nil {
			// MT ancestors have structurally high reuse (a level-k
			// node covers 8^k counter blocks): pin them as good
			// locality, more strongly the higher the level.
			score := 200 + depth*8
			if score > 255 {
				score = 255
			}
			e.lcrPols[c].SetHint(r.Set, r.Way, true, uint8(score))
		}
		if r.Hit {
			break // ancestor already verified: trust established
		}
		fetched++
		e.Traffic.MTRead++
		e.dram.Access(now, uint64(nodeAddr), false)
	}
	if e.walkHist != nil {
		e.walkHist.Observe(fetched)
	}
	if e.spans != nil {
		e.spans.Note(telemetry.CauseMTWalk, 0, fetched)
	}
}

// incrementCounter advances the line's counter for a DRAM write, handling
// MorphCtr overflow: re-encryption generates background 64B requests (§5).
func (e *Engine) incrementCounter(now uint64, dataLine uint64) {
	overflowed, reencLines := e.ctrStore.Increment(dataLine)
	if overflowed {
		e.ReEnc.OverflowEvents++
		var stall uint64
		for i := 0; i < reencLines; i++ {
			e.Traffic.ReEncWrite++
			e.ReEnc.OverflowLines++
			// Background queue slots: charge bank occupancy only.
			base := dataLine / uint64(ctr.Morph().LinesPerBlock) * uint64(ctr.Morph().LinesPerBlock)
			stall += e.dram.Access(now, (base+uint64(i))<<memsys.LineOffsetBits, true)
		}
		e.ReEnc.StallCycles += stall
		if e.spans != nil {
			e.spans.Note(telemetry.CauseReEnc, stall, uint64(reencLines))
		}
	}
}

// MACAccess models the MAC fetch/update for a DRAM data access through the
// per-core MAC cache: one 64B MAC block authenticates 8 data lines (§5).
// Returns the latency contribution (authentication overlaps the data burst;
// only a MAC-block DRAM fetch adds latency, and it overlaps the data fetch,
// so the returned value is traffic-only zero unless modelling strictness is
// desired).
func (e *Engine) MACAccess(c int, now uint64, dataLine uint64, write bool) {
	mc := e.macCaches[c]
	macAddr := e.layout.MACAddr(dataLine)
	r := mc.Access(macAddr.Line(), write, sigMAC)
	if r.Evicted && r.EvictedDirty {
		e.Traffic.MACWrite++
		e.dram.Access(now, r.EvictedLine<<memsys.LineOffsetBits, true)
	}
	if !r.Hit {
		e.Traffic.MACRead++
		lat := e.dram.Access(now, uint64(macAddr), false)
		if e.spans != nil {
			e.spans.Note(telemetry.CauseMACFetch, lat, 0)
		}
	}
}

// prefetchCtr issues CTR-cache prefetches proposed by the attached
// prefetcher, each costing a real DRAM fetch plus MT verification — the
// "incorrect prefetches still trigger integrity checks" effect of §3.3.
func (e *Engine) prefetchCtr(c int, now uint64, ctrLine uint64) {
	cc := e.ctrCaches[c]
	for _, cand := range e.pf.OnAccess(ctrLine, sigCtr) {
		if cc.Contains(cand) {
			continue
		}
		e.pfStats.Issued++
		r := cc.Access(cand, false, sigCtr)
		if r.Evicted && r.EvictedDirty {
			e.Traffic.CtrWrite++
			e.dram.Access(now, r.EvictedLine<<memsys.LineOffsetBits, true)
		}
		e.Traffic.CtrRead++
		e.dram.Access(now, cand<<memsys.LineOffsetBits, false)
		// integrity check for the prefetched counter
		if cand >= e.layout.CtrBase.Line() && cand < e.layout.MACBase.Line() {
			block := cand - e.layout.CtrBase.Line()
			e.verifyPath(c, now, block)
		}
		e.pfMark[cand] = true
	}
}

// ResetStats zeroes every measurement while keeping all learned state
// (Q-tables, CET, cache contents) — called at the end of a warmup phase.
func (e *Engine) ResetStats() {
	e.Traffic = Traffic{}
	e.ReEnc = ReEncStats{}
	e.CtrHits, e.CtrMisses = 0, 0
	e.pfStats = prefetch.Stats{}
	e.dram.Stats = dram.Stats{}
	for _, c := range e.ctrCaches {
		c.Stats = cache.Stats{}
	}
	for _, c := range e.macCaches {
		c.Stats = cache.Stats{}
	}
	if e.DataPred != nil {
		e.DataPred.Stats = core.DataStats{}
	}
	if e.CtrPred != nil {
		e.CtrPred.Stats = core.CtrStats{}
	}
}

// InSecureRegion reports whether an address falls inside the protected
// range (always true when no SGXv1-style bound is configured).
func (e *Engine) InSecureRegion(addr memsys.Addr) bool {
	if !e.design.Secure {
		return false
	}
	if e.cfg.SecureRegionBytes == 0 {
		return true
	}
	return uint64(addr) < e.cfg.SecureRegionBytes
}

package sim

import (
	"cosmos/internal/core"
	"cosmos/internal/memsys"
	"cosmos/internal/secmem"
)

// This file composes the off-chip critical path. An L1 miss opens a
// fetchPlan (location prediction, early counter issue); if every on-chip
// level misses, the plan is resolved into a fetchPath — the timed record of
// the three racing chains measured from t0 = the L1-miss point:
//
//   data:  the DRAM read. Memory controllers issue it speculatively in
//          parallel with the LLC tag lookup (it starts after the last
//          on-chip miss for normal walks, right at t0 for predicted-off
//          bypasses — gated by the concurrent walk's confirmation).
//   ctr:   the counter pipeline + OTP generation (AES). It starts at t0
//          for early designs (EMCC, predicted-off COSMOS) and only after
//          the last on-chip miss for the baseline — that serialisation is
//          exactly what COSMOS removes.
//   walk:  the lower on-chip lookups (L2+LLC), which must confirm the miss
//          before any speculative data can retire.
//
// Both the timing model (Step charges finish() to the thread) and the span
// recorder (NoteFetch builds the fetch node's walk, counter and data
// children) consume the same fetchPath value, so the two can never disagree
// about the path's shape.

// planProfile is the per-design half of the fetch plan, precomputed once at
// New: which early-issue mode the design runs and how the secure-region
// test resolves. planFetch consults it instead of re-deriving the decision
// from the design and engine config on every miss.
type planProfile struct {
	early secmem.EarlyMode
	// secureAll short-circuits the region test: every address is protected
	// (a secure design with no SGXv1-style bound configured).
	secureAll bool
	// secureBound is the protected-range limit for bounded secure designs;
	// 0 for non-secure designs, making the per-miss test a single compare.
	secureBound uint64
}

// newPlanProfile resolves the design's fetch-plan profile against the
// machine config.
func newPlanProfile(cfg Config, design secmem.Design) planProfile {
	p := planProfile{early: design.Early}
	if design.Secure {
		if cfg.MC.SecureRegionBytes == 0 {
			p.secureAll = true
		} else {
			p.secureBound = cfg.MC.SecureRegionBytes
		}
	}
	return p
}

// fetchPlan is the decision state opened at the L1-miss point, before the
// lower levels are probed.
type fetchPlan struct {
	// secure marks addresses inside the protected region; outside it the
	// access takes the non-protected path regardless of design.
	secure bool
	// pred is the data-location prediction (EarlyPredicted designs only).
	pred core.Prediction
	// predictedOff means the walk is bypassed: the DRAM read issues at t0.
	predictedOff bool
	// earlyCtr means the counter pipeline was started at t0.
	earlyCtr bool
	// ctrRes is the early counter access result when earlyCtr is set.
	ctrRes secmem.CtrResult
}

// planFetch opens the fetch plan for an L1 miss: consult the data-location
// predictor and start the counter pipeline early where the design allows.
// The design/region decision comes from the profile precomputed at New.
func (s *System) planFetch(c int, now uint64, line uint64, addr memsys.Addr) fetchPlan {
	var p fetchPlan
	p.secure = s.plan.secureAll || uint64(addr) < s.plan.secureBound
	switch s.plan.early {
	case secmem.EarlyPredicted:
		p.pred = s.mc.DataPred.Predict(uint64(addr))
		p.predictedOff = p.pred.OffChip
		if p.predictedOff && p.secure {
			p.ctrRes = s.mc.CtrAccess(c, now, line, false)
			p.earlyCtr = true
		}
	case secmem.EarlyAll:
		if p.secure {
			p.ctrRes = s.mc.CtrAccess(c, now, line, false)
			p.earlyCtr = true
		}
	}
	return p
}

// gradeOnChipHit settles the plan when a lower on-chip level hits: the
// predictor learns the access stayed on chip, and a predicted-off bypass
// that already launched a speculative DRAM read is charged as wasted. Store
// misses that hit before the last level skip the wasted-fetch charge (the
// store buffer absorbs them); by the last level the speculative read has
// issued either way.
func (s *System) gradeOnChipHit(p fetchPlan, now uint64, addr memsys.Addr, write, lastLevel bool) {
	if s.plan.early != secmem.EarlyPredicted {
		return
	}
	s.mc.DataPred.Learn(p.pred, false)
	if p.predictedOff && (lastLevel || !write) {
		s.mc.WastedFetch(now, addr)
	}
}

// fetchPath is the resolved off-chip critical path: the chain lengths of
// one fetch, all relative to t0 = the L1-miss point.
type fetchPath struct {
	// walkLat is the serial cost of the lower on-chip lookups.
	walkLat uint64
	// dataLat is the DRAM read cost.
	dataLat uint64
	// ctrLat is the counter pipeline + AES cost (secure only).
	ctrLat uint64
	// ctrHit records whether the counter was cached (the span tree's
	// counter cause).
	ctrHit bool

	secure       bool
	earlyCtr     bool
	predictedOff bool
}

// ctrStart is when the counter chain begins: t0 for early issue, after the
// walk otherwise.
func (f fetchPath) ctrStart() uint64 {
	if f.earlyCtr {
		return 0
	}
	return f.walkLat
}

// ctrReady is when the OTP is available. Zero for non-secure paths, which
// never wait on it.
func (f fetchPath) ctrReady() uint64 {
	if !f.secure {
		return 0
	}
	return f.ctrStart() + f.ctrLat
}

// dataStart is when the DRAM read issues: t0 for predicted-off bypasses,
// after the walk otherwise.
func (f fetchPath) dataStart() uint64 {
	if f.predictedOff {
		return 0
	}
	return f.walkLat
}

// dataReady is when the data line can retire: a speculative read is usable
// only once the walk confirms the miss; a serialised read simply lands
// after walk + DRAM.
func (f fetchPath) dataReady() uint64 {
	if f.predictedOff {
		return max64(f.walkLat, f.dataLat)
	}
	return f.walkLat + f.dataLat
}

// finish is the fetch's critical-path end: the later of data and OTP, plus
// the final OTP XOR on secure paths.
func (f fetchPath) finish() uint64 {
	end := max64(f.dataReady(), f.ctrReady())
	if f.secure {
		end++
	}
	return end
}

// composeFetch resolves an all-miss plan into the timed path: the predictor
// learns the miss, the counter pipeline runs (now, if it did not start
// early), and the DRAM read and MAC fetch are issued. Call order is part of
// the timing model — DRAM bank state is shared between the data, counter
// and MAC streams.
func (s *System) composeFetch(c int, now uint64, line uint64, addr memsys.Addr, p fetchPlan) fetchPath {
	if s.plan.early == secmem.EarlyPredicted {
		s.mc.DataPred.Learn(p.pred, true)
	}
	f := fetchPath{
		walkLat:      s.walkLat,
		secure:       p.secure,
		earlyCtr:     p.earlyCtr,
		predictedOff: p.predictedOff,
	}
	ctrRes := p.ctrRes
	if !p.earlyCtr && p.secure {
		ctrRes = s.mc.CtrAccess(c, now, line, false)
	}
	f.dataLat = s.mc.DataDRAM(now, addr, false)
	if p.secure {
		s.mc.MACAccess(c, now, line, false)
		f.ctrLat = ctrRes.Latency + s.cfg.MC.AESLat
		f.ctrHit = ctrRes.Hit
	}
	return f
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

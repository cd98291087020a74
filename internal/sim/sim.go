// Package sim is the multi-core system simulator: a composed chain of
// memory-hierarchy levels (per-core L1 and L2 caches, a shared LLC) ending
// in the secure memory controller (internal/secmem), driven by workload
// access streams. It accounts per-thread cycles with a simple out-of-order
// overlap model and produces the metrics every paper figure is built from:
// IPC, cache miss rates, CTR cache behaviour, DRAM traffic decomposition
// and SMAT (Eq 1-2).
package sim

import (
	"context"
	"fmt"
	"slices"
	"time"

	"cosmos/internal/cache"
	"cosmos/internal/core"
	"cosmos/internal/dram"
	"cosmos/internal/memsys"
	"cosmos/internal/prefetch"
	"cosmos/internal/secmem"
	"cosmos/internal/telemetry"
	"cosmos/internal/trace"
)

// LevelSpec describes one on-chip cache level of the hierarchy. Levels are
// listed top (closest to the core) first; Shared levels are instantiated
// once and banked by every core, private levels once per core. Private
// levels may not sit below shared ones.
type LevelSpec struct {
	Name   string `json:"name"`
	Bytes  int    `json:"bytes"`
	Ways   int    `json:"ways"`
	Lat    uint64 `json:"lat"`
	Shared bool   `json:"shared,omitempty"`
}

// Config is the Table 3 machine.
type Config struct {
	Cores int

	L1Bytes, L1Ways   int
	L2Bytes, L2Ways   int
	LLCBytes, LLCWays int
	L1Lat, L2Lat      uint64
	LLCLat            uint64

	// Levels optionally replaces the L1/L2/LLC fields above with an
	// arbitrary on-chip hierarchy (top first). Nil means the classic
	// three-level machine built from the scalar fields.
	Levels []LevelSpec `json:",omitempty"`

	// NonMemCycles is the compute time each access group carries (the
	// non-memory instructions between memory references).
	NonMemCycles uint64
	// InstrPerAccess converts accesses to instructions for IPC.
	InstrPerAccess uint64
	// MLP divides off-chip stall time, modelling OoO overlap of misses.
	MLP uint64

	MC secmem.Config
}

// Validate rejects configurations that would otherwise panic deep inside
// Step: non-power-of-two cache geometry, zero latencies, degenerate core or
// overlap counts and bad DRAM geometry. The CLIs and the runner call it
// before building a System.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("sim: cores %d must be at least 1", c.Cores)
	}
	if c.MLP < 1 {
		return fmt.Errorf("sim: mlp %d must be at least 1", c.MLP)
	}
	if c.InstrPerAccess < 1 {
		return fmt.Errorf("sim: instr-per-access %d must be at least 1", c.InstrPerAccess)
	}
	specs := c.OnChip()
	if len(specs) == 0 || len(specs) > 255 {
		return fmt.Errorf("sim: %d levels, want 1 to 255", len(specs))
	}
	shared := false
	for _, sp := range specs {
		if sp.Name == "" {
			return fmt.Errorf("sim: unnamed cache level")
		}
		if err := cache.ValidateGeometry(sp.Name, sp.Bytes, sp.Ways); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		if sp.Lat == 0 {
			return fmt.Errorf("sim: level %q has zero latency", sp.Name)
		}
		if sp.Shared {
			shared = true
		} else if shared {
			return fmt.Errorf("sim: private level %q below a shared level", sp.Name)
		}
	}
	mc := c.MC
	mc.Cores = c.Cores // New overwrites it the same way
	if err := mc.Validate(); err != nil {
		return err
	}
	return nil
}

// OnChip resolves the on-chip hierarchy: the explicit Levels list when
// set, otherwise the classic L1/L2/LLC machine.
func (c Config) OnChip() []LevelSpec {
	if len(c.Levels) > 0 {
		return c.Levels
	}
	return []LevelSpec{
		{Name: "l1", Bytes: c.L1Bytes, Ways: c.L1Ways, Lat: c.L1Lat},
		{Name: "l2", Bytes: c.L2Bytes, Ways: c.L2Ways, Lat: c.L2Lat},
		{Name: "llc", Bytes: c.LLCBytes, Ways: c.LLCWays, Lat: c.LLCLat, Shared: true},
	}
}

// DefaultConfig returns the paper's 4-core setup (Table 3).
func DefaultConfig() Config {
	return Config{
		Cores:          4,
		L1Bytes:        32 << 10,
		L1Ways:         2,
		L2Bytes:        1 << 20,
		L2Ways:         8,
		LLCBytes:       8 << 20,
		LLCWays:        16,
		L1Lat:          2,
		L2Lat:          20,
		LLCLat:         128,
		NonMemCycles:   4,
		InstrPerAccess: 4,
		MLP:            4,
		MC:             secmem.DefaultConfig(),
	}
}

// EightCore scales the default to the Fig 15 8-core / 16MB-LLC machine.
func EightCore() Config {
	c := DefaultConfig()
	c.Cores = 8
	c.LLCBytes = 16 << 20
	c.MC.Cores = 8
	return c
}

type levelStats struct {
	accesses uint64
	misses   uint64
}

func (l levelStats) missRate() float64 {
	if l.accesses == 0 {
		return 0
	}
	return float64(l.misses) / float64(l.accesses)
}

// System is one simulated machine instance.
type System struct {
	cfg    Config
	design secmem.Design

	// chains[c] is core c's view of the on-chip hierarchy, top first:
	// private levels are distinct per core, the tail from sharedFrom on is
	// the same Level values in every chain. Each level's writeback link is
	// wired to the next; the last level drains into the victim log, whose
	// lines the timing half replays into the secure-memory terminal. The
	// chains are held concretely so the step hot path probes them without
	// interface dispatch.
	chains     [][]*cache.Level
	specs      []LevelSpec
	lats       []uint64 // specs[i].Lat, indexed like chains[c]
	sharedFrom int
	mc         *secmem.Engine

	// plan is the per-design fetch-plan profile, precomputed at New so
	// planFetch does not re-derive the design/region decision per miss.
	plan planProfile

	l1Lat   uint64 // level-0 lookup cost, charged on every access
	walkLat uint64 // serial cost of the levels below level 0

	threadCycles []uint64
	demand       []levelStats // indexed like chains[c]

	accesses     uint64
	reads        uint64
	writes       uint64
	offChipReads uint64
	fetchLatSum  uint64
	bypassed     uint64 // accesses that skipped the L2/LLC walk latency
	fetchHist    telemetry.Histogram

	// Attached observers (nil when off). Step touches only spans, in the
	// timing half's entry and its single exit; RunContext consults the
	// sampler and the phases once per block.
	sampler *telemetry.Sampler
	phases  *telemetry.Phases
	spans   *telemetry.SpanRecorder

	// cycleBase is each thread's clock when measurement began (the end of
	// a warmup); Results reports cycles since then. The clocks themselves
	// never rewind, so the timing state they are compared against (DRAM
	// bank and channel availability) stays consistent across a warmup.
	// It sits after the fields Step touches, leaving their layout as is.
	cycleBase []uint64

	// victims is the last on-chip level's writeback link, written by walk
	// only; term is the secure-memory terminal the timing half replays the
	// logged victims into; stepLog is Step's one-access walk log.
	victims *victimLog
	term    *secmem.Level
	stepLog walkLog

	// coreOf maps an access's thread to its core (thread modulo cores),
	// so walk indexes a table instead of dividing per access.
	coreOf [256]uint8

	// walkedBy is the system whose walk a timing-only member times (see
	// Member); nil for a system with its own hierarchy.
	walkedBy *System
}

// New builds a system for the given design point: the secure-memory
// terminal, then the on-chip levels bottom-up so each can be handed its
// downstream writeback link.
func New(cfg Config, design secmem.Design) *System {
	s := newTiming(cfg, design)
	s.demand = make([]levelStats, len(s.specs))

	newLevel := func(sp LevelSpec, down memsys.Level) *cache.Level {
		return cache.NewLevel(cache.New(sp.Name, sp.Bytes, sp.Ways, cache.NewLRU()), sp.Lat, down)
	}

	// Shared tail, built once. The last level drains into the victim log;
	// the timing half replays its lines into the secure-memory terminal.
	s.victims = &victimLog{}
	var down memsys.Level = s.victims
	shared := make([]*cache.Level, len(s.specs)-s.sharedFrom)
	for i := len(s.specs) - 1; i >= s.sharedFrom; i-- {
		l := newLevel(s.specs[i], down)
		shared[i-s.sharedFrom] = l
		down = l
	}
	sharedTop := down

	// Private prefix, per core, linked onto the shared tail.
	s.chains = make([][]*cache.Level, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		chain := make([]*cache.Level, len(s.specs))
		copy(chain[s.sharedFrom:], shared)
		down := sharedTop
		for i := s.sharedFrom - 1; i >= 0; i-- {
			l := newLevel(s.specs[i], down)
			chain[i] = l
			down = l
		}
		s.chains[c] = chain
	}
	s.stepLog = newWalkLog(1, len(s.specs))
	for t := range s.coreOf {
		s.coreOf[t] = uint8(t % cfg.Cores)
	}
	return s
}

// newTiming builds everything of a system but its on-chip hierarchy and
// demand counters: the secure-memory side, the fetch-plan profile, the
// level latencies and the thread clocks.
func newTiming(cfg Config, design secmem.Design) *System {
	cfg.MC.Cores = cfg.Cores
	s := &System{cfg: cfg, design: design}
	s.specs = cfg.OnChip()
	s.mc = secmem.NewEngine(cfg.MC, design)
	s.term = secmem.NewLevel(s.mc)

	s.sharedFrom = len(s.specs)
	for i, sp := range s.specs {
		if sp.Shared {
			s.sharedFrom = i
			break
		}
	}
	for i := s.sharedFrom; i < len(s.specs); i++ {
		if !s.specs[i].Shared {
			panic(fmt.Sprintf("sim: private level %q below shared level %q",
				s.specs[i].Name, s.specs[s.sharedFrom].Name))
		}
	}
	s.plan = newPlanProfile(cfg, design)

	s.lats = make([]uint64, len(s.specs))
	for i, sp := range s.specs {
		s.lats[i] = sp.Lat
	}
	s.l1Lat = s.lats[0]
	for _, l := range s.lats[1:] {
		s.walkLat += l
	}
	s.threadCycles = make([]uint64, cfg.Cores)
	s.cycleBase = make([]uint64, cfg.Cores)
	return s
}

// Member builds a timing-only system for a group run with s (see
// RunGroup): it has its own secure-memory side, built from cfg and design,
// and no on-chip hierarchy. It times the accesses s walks, and its demand
// counters are s's. cfg may differ from s's config in everything but the
// cores and the on-chip levels; Member panics if those differ. A member
// cannot Step, Warmup or run on its own, and registers no metrics.
func (s *System) Member(cfg Config, design secmem.Design) *System {
	if s.walkedBy != nil {
		panic("sim: Member of a timing-only system")
	}
	if cfg.Cores != s.cfg.Cores || !slices.Equal(cfg.OnChip(), s.specs) {
		panic(fmt.Sprintf("sim: group member's machine (%d cores, levels %v) differs from the walker's (%d cores, levels %v)",
			cfg.Cores, cfg.OnChip(), s.cfg.Cores, s.specs))
	}
	m := newTiming(cfg, design)
	m.demand = s.demand
	m.walkedBy = s
	return m
}

// MC exposes the memory controller (for experiment harnesses).
func (s *System) MC() *secmem.Engine { return s.mc }

// Chain returns core c's on-chip hierarchy, top (L1) first. Shared levels
// appear in every core's chain as the same *cache.Level; the secure-memory
// terminal the last level drains into is not included. The slice is the
// system's own: callers must not modify it.
func (s *System) Chain(c int) []*cache.Level { return s.chains[c] }

// RegisterMetrics registers the whole system's metric set under root:
// run-level access counters and derived rates, the off-chip fetch-latency
// histogram, every hierarchy level (private levels under their core's
// scope, shared levels at root), and everything the memory controller
// exports (CTR pipeline, traffic classes, DRAM, RL predictors). Call once
// after New and before the first sampled access.
func (s *System) RegisterMetrics(root *telemetry.Scope) {
	sys := root.Scope("sim")
	sys.Counter("accesses", &s.accesses)
	sys.Counter("reads", &s.reads)
	sys.Counter("writes", &s.writes)
	sys.Counter("offchip_reads", &s.offChipReads)
	sys.Counter("bypassed", &s.bypassed)
	sys.RateOf("bypass_rate", &s.bypassed, &s.offChipReads)
	sys.RateOf("avg_fetch_lat", &s.fetchLatSum, &s.offChipReads)
	sys.Gauge("ipc", func() float64 { return s.Results("").IPC })
	sys.HistogramVar("fetch_latency", &s.fetchHist)

	for c := 0; c < s.cfg.Cores; c++ {
		coreScope := root.Scope(fmt.Sprintf("core%d", c))
		for i := 0; i < s.sharedFrom; i++ {
			s.chains[c][i].RegisterMetrics(coreScope.Scope(s.specs[i].Name))
		}
	}
	for i := s.sharedFrom; i < len(s.specs); i++ {
		s.chains[0][i].RegisterMetrics(root.Scope(s.specs[i].Name))
	}
	s.mc.RegisterMetrics(root.Scope("secmem"))
}

// AttachSampler enables interval sampling during Run. The sampler must be
// built over a registry this system registered into.
func (s *System) AttachSampler(sp *telemetry.Sampler) { s.sampler = sp }

// AttachSpans enables access-level span tracing: every Step feeds the
// recorder's per-cause latency histograms, and a deterministic 1-in-N
// subset of accesses gets a full span tree (see telemetry.SpanRecorder).
// The recorder is also attached to the memory controller so metadata-path
// events (counter misses, MT walks, MAC fetches, re-encryption storms)
// annotate the same trees, and it learns the level names and latencies its
// level-miss spans are laid out from. Not attaching one (the default) keeps
// Step allocation-free and the Results bit-identical.
func (s *System) AttachSpans(rec *telemetry.SpanRecorder) {
	names := make([]string, len(s.specs))
	for i, sp := range s.specs {
		names[i] = sp.Name
	}
	rec.SetLevels(names, s.lats)
	s.spans = rec
	s.mc.AttachSpans(rec)
}

// AttachPhases enables wall-time attribution during RunContext: decode
// (the caller's generator NextBlock calls), step (the caller's timing half,
// including waits for the cache walk) and report (sampler flush + Results
// assembly) wall time plus the count of timed accesses accumulate into p,
// which may be shared across systems (campaign-level attribution).
// RunContext times each block's decode and timing once, so the access
// order, the Results and the per-step semantics are identical to an
// unattributed run while the timing overhead stays at four clock reads per
// block. Nil (the default) skips the clock reads.
func (s *System) AttachPhases(p *telemetry.Phases) { s.phases = p }

// phaseBlock is the block size of RunContext's pipeline (the unit the
// generator decodes, the worker walks and the caller times) and of
// Warmup's decode-ahead.
const phaseBlock = 1024

// Step processes one access and returns its critical-path latency. It is
// the serial composition of the two halves RunContext overlaps (see
// pipeline.go): walk probes the core's level chain until a hit (writebacks
// cascade inside the levels, and the last level's dirty victims are
// logged), then timeAccess replays the logged victims into the
// secure-memory terminal, composes the off-chip fetch path on an all-miss
// and advances the thread clock. The walk runs on concrete *cache.Level
// values via Probe — no interface dispatch or Request/Response traffic on
// the hit path. An attached span recorder is touched in the timing half
// only: at its entry, and once in its shared exit.
func (s *System) Step(a memsys.Access) uint64 {
	acc := [1]memsys.Access{a}
	s.walk(acc[:], &s.stepLog)
	return s.timeAccess(a, s.stepLog.recs[0], s.stepLog.victims)
}

// advance applies the cycle cost of one access group to its thread: compute
// cycles plus the memory stall, with off-chip stalls divided by the MLP
// overlap factor. Dependent loads (pointer chasing) get no overlap; writes
// retire through the store buffer (L1 latency only).
func (s *System) advance(c int, write, dep bool, lat uint64) {
	stall := lat
	switch {
	case write:
		stall = s.l1Lat
	case dep:
		// serialising load: the full latency lands on the thread
	case lat > s.l1Lat:
		stall = s.l1Lat + (lat-s.l1Lat)/s.cfg.MLP
	}
	s.threadCycles[c] += s.cfg.NonMemCycles + stall
}

// measuredCycles returns thread c's cycles since measurement began.
func (s *System) measuredCycles(c int) uint64 {
	return s.threadCycles[c] - s.cycleBase[c]
}

// Warmup drives the system for n accesses and then clears every
// measurement, keeping all learned state: cache contents, Q-tables, CET.
// Use it to measure steady-state behaviour without the cold-start
// transient.
func (s *System) Warmup(gen trace.Generator, n uint64) {
	var buf [phaseBlock]memsys.Access
	for n > 0 {
		m := gen.NextBlock(buf[:min(n, phaseBlock)])
		if m == 0 {
			break
		}
		for _, a := range buf[:m] {
			s.Step(a)
		}
		n -= uint64(m)
	}
	s.ResetStats()
}

// ResetStats zeroes measurements (not learned state); see Warmup. Thread
// clocks keep running: measured cycles restart from the current clocks.
func (s *System) ResetStats() {
	s.accesses, s.reads, s.writes = 0, 0, 0
	s.offChipReads, s.fetchLatSum, s.bypassed = 0, 0, 0
	s.fetchHist = telemetry.Histogram{}
	copy(s.cycleBase, s.threadCycles)
	s.mc.ResetStats()
	if s.walkedBy != nil {
		return // the hierarchy and its demand counters are the walker's
	}
	for i := range s.demand {
		s.demand[i] = levelStats{}
	}
	for c := range s.chains {
		for i := 0; i < s.sharedFrom; i++ {
			s.chains[c][i].ResetStats()
		}
	}
	for i := s.sharedFrom; i < len(s.specs); i++ {
		s.chains[0][i].ResetStats()
	}
}

// Run drives the system from a generator for at most maxAccesses. When a
// sampler is attached, every registered metric is snapshotted each interval
// boundary and the final partial interval is flushed before the results are
// computed.
func (s *System) Run(gen trace.Generator, maxAccesses uint64) Results {
	r, _ := s.RunContext(context.Background(), gen, maxAccesses)
	return r
}

// CancelCheckEvery bounds the cancellation latency of RunContext: it is
// also the pipeline's in-flight bound (pipeDepth blocks of phaseBlock), and
// the context is consulted once per timed block, so a cancellation lands
// mid-simulation after at most this many additional accesses — the blocks
// already handed to the worker are timed before RunContext returns.
const CancelCheckEvery = 4096

// finishRun flushes the sampler and assembles Results, booking the wall
// time as the report phase when attribution is on.
func (s *System) finishRun(workload string) Results {
	var t0 time.Time
	if s.phases != nil {
		t0 = time.Now()
	}
	if s.sampler != nil {
		s.sampler.Flush(s.accesses)
	}
	res := s.Results(workload)
	if s.phases != nil {
		s.phases.Add(telemetry.PhaseReport, time.Since(t0))
	}
	return res
}

// Results snapshots every metric the experiment harness consumes.
type Results struct {
	Design   string
	Workload string

	Accesses     uint64
	Reads        uint64
	Writes       uint64
	Instructions uint64
	Cycles       uint64
	IPC          float64

	L1MissRate  float64
	L2MissRate  float64
	LLCMissRate float64

	CtrAccesses  uint64
	CtrMissRate  float64
	OffChipReads uint64
	Bypassed     uint64
	// BypassRate is the fraction of off-chip reads whose L2/LLC walk was
	// bypassed by an off-chip prediction (Bypassed / OffChipReads).
	BypassRate float64
	// AvgFetchLat is the mean off-chip fetch latency in cycles, measured
	// from the L1-miss point to data ready (FetchLatSum / OffChipReads).
	AvgFetchLat float64

	Traffic secmem.Traffic
	DRAM    dram.Stats

	DataPred *core.DataStats
	CtrPred  *core.CtrStats
	Prefetch prefetch.Stats

	// Tail carries the per-cause latency distributions (p50/p95/p99/p999)
	// when a span recorder was attached. Nil otherwise, so span-free
	// Results are byte-identical to earlier builds.
	Tail *telemetry.TailReport `json:",omitempty"`

	SMAT float64
}

// Results computes the final metrics. Miss rates map the level chain onto
// the fixed report fields: level 0 is L1, level 1 is L2, the last level is
// the LLC.
func (s *System) Results(workload string) Results {
	var maxCycles uint64
	for c := range s.threadCycles {
		maxCycles = max(maxCycles, s.measuredCycles(c))
	}
	res := Results{
		Design:       s.design.Name,
		Workload:     workload,
		Accesses:     s.accesses,
		Reads:        s.reads,
		Writes:       s.writes,
		Instructions: s.accesses * s.cfg.InstrPerAccess,
		Cycles:       maxCycles,
		L1MissRate:   s.demand[0].missRate(),
		CtrAccesses:  s.mc.CtrHits + s.mc.CtrMisses,
		CtrMissRate:  s.mc.CtrMissRate(),
		OffChipReads: s.offChipReads,
		Bypassed:     s.bypassed,
		Traffic:      s.mc.Traffic,
		DRAM:         s.mc.DRAMStats(),
		Prefetch:     s.mc.PrefetchStats(),
	}
	if len(s.demand) > 1 {
		res.L2MissRate = s.demand[1].missRate()
		res.LLCMissRate = s.demand[len(s.demand)-1].missRate()
	}
	if maxCycles > 0 {
		res.IPC = float64(res.Instructions) / float64(maxCycles)
	}
	if s.offChipReads > 0 {
		res.BypassRate = float64(s.bypassed) / float64(s.offChipReads)
		res.AvgFetchLat = float64(s.fetchLatSum) / float64(s.offChipReads)
	}
	if s.mc.DataPred != nil {
		st := s.mc.DataPred.Stats
		res.DataPred = &st
	}
	if s.mc.CtrPred != nil {
		st := s.mc.CtrPred.Stats
		res.CtrPred = &st
	}
	if s.spans != nil {
		res.Tail = s.spans.Report()
	}
	res.SMAT = s.smat()
	return res
}

// smat evaluates Eq 1-2 with measured miss rates and the machine's
// configured latencies; DRAM terms use the model's best-case read latency
// plus an activation blend from the observed row-hit rate. The walked term
// folds over the level chain from the innermost level outward.
func (s *System) smat() float64 {
	cfg := s.cfg
	d := s.mc.DRAMStats()
	rowHit := d.RowHitRate()
	dramLat := float64(cfg.MC.DRAM.TCAS+cfg.MC.DRAM.TBus+cfg.MC.DRAM.Queue)*rowHit +
		float64(cfg.MC.DRAM.TRP+cfg.MC.DRAM.TRCD+cfg.MC.DRAM.TCAS+cfg.MC.DRAM.TBus+cfg.MC.DRAM.Queue)*(1-rowHit)

	var ctrTerm float64
	if s.design.Secure {
		mrCtr := s.mc.CtrMissRate()
		verify := float64(cfg.MC.AuthLat)
		ctrTerm = float64(cfg.MC.CtrHitLat) + mrCtr*(dramLat+verify)
		ctrTerm += float64(cfg.MC.AESLat)
	}

	// Bypass share (§6.1.3): the fraction of L1 misses that skip the
	// L2/LLC walk entirely and go straight to the CTR cache and DRAM.
	var b float64
	if s.demand[0].misses > 0 {
		b = float64(s.bypassed) / float64(s.demand[0].misses)
	}
	direct := ctrTerm + dramLat
	walked := direct
	for i := len(s.specs) - 1; i >= 1; i-- {
		walked = float64(s.lats[i]) + s.demand[i].missRate()*walked
	}
	return float64(s.l1Lat) + s.demand[0].missRate()*((1-b)*walked+b*direct)
}

package memsys

import "cosmos/internal/telemetry"

// This file defines the request/port vocabulary of the memory hierarchy:
// every storage layer a memory access can visit — data caches, metadata
// caches, the secure-memory terminal, raw DRAM — speaks the same Level
// interface, so the simulator's access path is a composed chain of levels
// rather than a set of hard-wired fields (gem5's cpu_side/mem_side port
// style). A demand access walks the chain top-down via Access; dirty
// victims cascade down the chain via Writeback, each level deciding only
// where its own victims go.

// SigWriteback is the region signature carried by writeback installs, so
// PC-indexed replacement policies (SHiP, Mockingjay) can distinguish dirty
// victims arriving from above from demand fills.
const SigWriteback uint16 = 59999

// Request is one command sent to a Level: a demand lookup (Write marks
// stores), or — when Sig is SigWriteback — the installation of a dirty
// victim evicted by the level above.
type Request struct {
	// Line is the cache-line number (Addr >> 6).
	Line uint64
	// Write marks stores (demand) or dirty installs (writebacks).
	Write bool
	// Sig tags the access's code region for PC-indexed structures.
	Sig uint16
	// Core is the issuing core, selecting per-core metadata structures
	// (CTR/MAC caches) at the secure-memory terminal.
	Core int
	// Now is the issuing thread's clock, feeding DRAM bank timing.
	Now uint64
}

// Response reports the outcome of a Level access.
type Response struct {
	// Hit reports whether the line was present at this level.
	Hit bool
	// Latency is what the access cost at this level: the fixed lookup
	// latency for on-chip caches, the modelled DRAM latency for memory
	// terminals.
	Latency uint64
	// Evicted/EvictedLine/EvictedDirty describe the victim this access
	// displaced, after any writeback cascade it triggered has completed.
	Evicted      bool
	EvictedLine  uint64
	EvictedDirty bool
	// Poisoned marks data returned from a line the fault plane quarantined
	// after exhausting its retry budget: the value is not trustworthy, but
	// the access completes (graceful degradation rather than a halt).
	Poisoned bool
}

// Level is one layer of the memory hierarchy. Implementations: cache.Level
// (set-associative on-chip caches) and secmem.Level (the secure-memory
// terminal: data DRAM plus counter/MAC/Merkle metadata). A level owns its downstream link: Access installs
// the line and forwards any dirty victim to the level below via Writeback,
// so callers never see a writeback escape the chain.
type Level interface {
	// Name labels the level ("l1", "llc", "mem"); it also names the
	// level's telemetry scope.
	Name() string
	// Latency is the fixed lookup cost of probing this level, charged
	// whether the access hits or misses.
	Latency() uint64
	// Access performs a demand lookup, filling on miss and cascading any
	// dirty victim down the chain before returning.
	Access(Request) Response
	// Writeback installs a dirty victim evicted by the level above,
	// cascading its own victim further down. Terminal levels absorb the
	// write (data DRAM write plus secure-metadata updates).
	Writeback(Request)
	// RegisterMetrics registers the level's counters under the scope.
	RegisterMetrics(*telemetry.Scope)
	// ResetStats zeroes measurements while keeping learned state.
	ResetStats()
}

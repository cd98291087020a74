package memsys

// This file defines the writeback link of the memory hierarchy. Demand
// accesses walk the on-chip caches through cache.Level.Probe; a dirty
// victim leaves a level through its Level link, each level deciding only
// where its own victims go (gem5's mem_side port, reduced to the one
// command that crosses it).

// SigWriteback is the region signature carried by writeback installs, so
// PC-indexed replacement policies (SHiP, Mockingjay) can distinguish dirty
// victims arriving from above from demand fills.
const SigWriteback uint16 = 59999

// Request is a dirty victim sent down a Level link by the level above.
type Request struct {
	// Line is the cache-line number (Addr >> 6).
	Line uint64
	// Write marks the install dirty; every writeback sets it.
	Write bool
	// Sig tags the install for PC-indexed structures (SigWriteback).
	Sig uint16
	// Core is the issuing core, selecting per-core metadata structures
	// (CTR/MAC caches) at the secure-memory terminal.
	Core int
	// Now is the issuing thread's clock, feeding DRAM bank timing.
	Now uint64
}

// Level is the writeback link between two layers of the memory hierarchy.
// Implementations: cache.Level (a set-associative on-chip cache, which
// installs the line and cascades its own dirty victim further down) and
// secmem.Level (the secure-memory terminal, which absorbs the write as a
// data DRAM write plus the counter and MAC updates it entails).
type Level interface {
	// Writeback installs a dirty victim evicted by the level above.
	Writeback(Request)
}

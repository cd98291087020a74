package secmem

import "cosmos/internal/memsys"

// Level is the terminal of the memory hierarchy: the secure-memory
// controller on the far end of the LLC's writeback link. A Writeback
// absorbs an LLC dirty victim as a data DRAM write plus — for protected
// addresses — the counter bump and MAC update the write entails. Demand
// fetches never come through here: the simulator's fetch-path composer
// drives the Engine's explicit API (data DRAM, counter lookup, OTP, MAC
// verify, integrity walk), because those chains race the data access
// rather than serialize behind it.
type Level struct {
	e *Engine
}

// NewLevel wraps e as the hierarchy terminal.
func NewLevel(e *Engine) *Level { return &Level{e: e} }

// Writeback absorbs a dirty victim: the data write goes to DRAM, and if
// the line is protected the counter is bumped (write-allocate in the CTR
// cache) and the MAC is recomputed. Writebacks are off the critical path,
// so only traffic and cache state matter, not the returned latencies.
func (l *Level) Writeback(r memsys.Request) {
	addr := memsys.LineToAddr(r.Line)
	l.e.DataDRAM(r.Now, addr, true)
	if l.e.design.Secure && l.e.InSecureRegion(addr) {
		l.e.CtrAccess(r.Core, r.Now, r.Line, true)
		l.e.MACAccess(r.Core, r.Now, r.Line, true)
	}
}

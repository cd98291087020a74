// Package dram models a DDR4-2400-like main memory: channels, banks, open
// row buffers, and bank busy times, matching the DDR4_2400_16x4 device the
// paper configures in Table 3. Latencies are expressed in 3GHz core cycles
// so the rest of the simulator works in a single clock domain.
package dram

import (
	"cmp"
	"fmt"
	"math/bits"

	"cosmos/internal/telemetry"
)

// Config describes the device geometry and timing (all times in core
// cycles at 3GHz; DDR4-2400 CL17 ≈ 14.2ns ≈ 42 cycles).
type Config struct {
	Channels int
	BanksPer int // banks per channel (rank×bankgroup×bank flattened)
	RowBytes uint64

	TCAS  uint64 // column access (row-buffer hit)
	TRCD  uint64 // activate
	TRP   uint64 // precharge
	TBus  uint64 // data burst on the bus
	Queue uint64 // fixed controller queueing/processing overhead
}

// DefaultConfig returns the Table 3 device: DDR4_2400_16x4, 32GB.
func DefaultConfig() Config {
	return Config{
		Channels: 2,
		BanksPer: 16,
		RowBytes: 8192,
		TCAS:     42,
		TRCD:     42,
		TRP:      42,
		TBus:     8,
		Queue:    10,
	}
}

// Validate rejects geometry New cannot model sensibly. Zero-valued fields
// are legal (New substitutes the Table 3 defaults); negative counts,
// non-power-of-two row sizes and a bank count (channels × banks per
// channel, after defaults) that is not a power of two are not, so the bank
// mapping is shifts and masks.
func (c Config) Validate() error {
	if c.Channels < 0 {
		return fmt.Errorf("dram: negative channel count %d", c.Channels)
	}
	if c.BanksPer < 0 {
		return fmt.Errorf("dram: negative banks-per-channel %d", c.BanksPer)
	}
	if c.RowBytes != 0 && (c.RowBytes < 64 || c.RowBytes&(c.RowBytes-1) != 0) {
		return fmt.Errorf("dram: row size %d not a power of two >= 64", c.RowBytes)
	}
	def := DefaultConfig()
	ch, bp := cmp.Or(c.Channels, def.Channels), cmp.Or(c.BanksPer, def.BanksPer)
	// A product of positive integers is a power of two exactly when each
	// factor is; testing the factors cannot overflow.
	if ch&(ch-1) != 0 || bp&(bp-1) != 0 {
		return fmt.Errorf("dram: %d channels × %d banks is not a power of two", ch, bp)
	}
	return nil
}

// Stats accumulates DRAM behaviour counters.
type Stats struct {
	Reads      uint64
	Writes     uint64
	RowHits    uint64
	RowMisses  uint64
	BusyStalls uint64 // cycles spent waiting for a busy bank
}

// RowHitRate reports the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	n := s.Reads + s.Writes
	if n == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(n)
}

// Model is the DRAM timing model. It is driven with (now, address) pairs and
// returns per-access latency, tracking open rows and bank availability.
type Model struct {
	cfg     Config
	openRow []int64  // per-bank open row (-1 = closed)
	freeAt  []uint64 // per-bank earliest next-command time

	// bankOf's mapping: a row number is addr>>rowShift, its bank the low
	// bits under bankMask, its row within the bank the bits above.
	rowShift, bankShift uint
	bankMask            uint64

	Stats Stats
}

// New builds a model from cfg (zero-valued fields fall back to defaults).
// It panics on a config that Validate rejects.
func New(cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	def := DefaultConfig()
	if cfg.Channels <= 0 {
		cfg.Channels = def.Channels
	}
	if cfg.BanksPer <= 0 {
		cfg.BanksPer = def.BanksPer
	}
	if cfg.RowBytes == 0 {
		cfg.RowBytes = def.RowBytes
	}
	if cfg.TCAS == 0 {
		cfg.TCAS = def.TCAS
	}
	if cfg.TRCD == 0 {
		cfg.TRCD = def.TRCD
	}
	if cfg.TRP == 0 {
		cfg.TRP = def.TRP
	}
	if cfg.TBus == 0 {
		cfg.TBus = def.TBus
	}
	nbanks := cfg.Channels * cfg.BanksPer
	m := &Model{
		cfg:       cfg,
		openRow:   make([]int64, nbanks),
		freeAt:    make([]uint64, nbanks),
		rowShift:  uint(bits.TrailingZeros64(cfg.RowBytes)),
		bankShift: uint(bits.TrailingZeros(uint(nbanks))),
		bankMask:  uint64(nbanks - 1),
	}
	for i := range m.openRow {
		m.openRow[i] = -1
	}
	return m
}

// RegisterMetrics registers the DRAM behaviour counters and the
// per-interval row-hit rate under the given telemetry scope.
func (m *Model) RegisterMetrics(s *telemetry.Scope) {
	s.Counter("reads", &m.Stats.Reads)
	s.Counter("writes", &m.Stats.Writes)
	s.Counter("row_hits", &m.Stats.RowHits)
	s.Counter("row_misses", &m.Stats.RowMisses)
	s.Counter("busy_stalls", &m.Stats.BusyStalls)
	s.Rate("row_hit_rate",
		func() uint64 { return m.Stats.RowHits },
		func() uint64 { return m.Stats.Reads + m.Stats.Writes })
}

// bankOf maps an address to a bank using row-interleaved placement: bits
// above the row select channel and bank so sequential rows spread across
// banks.
func (m *Model) bankOf(addr uint64) (bank int, row int64) {
	rowNum := addr >> m.rowShift
	return int(rowNum & m.bankMask), int64(rowNum >> m.bankShift)
}

// Access simulates one 64B read or write beginning no earlier than `now`,
// returning the access latency in cycles (including any wait for the bank).
func (m *Model) Access(now uint64, addr uint64, write bool) uint64 {
	if write {
		m.Stats.Writes++
	} else {
		m.Stats.Reads++
	}
	bank, row := m.bankOf(addr)

	start := now
	if m.freeAt[bank] > start {
		m.Stats.BusyStalls += m.freeAt[bank] - start
		start = m.freeAt[bank]
	}

	var service uint64
	if m.openRow[bank] == row {
		m.Stats.RowHits++
		service = m.cfg.TCAS
	} else {
		m.Stats.RowMisses++
		if m.openRow[bank] >= 0 {
			service = m.cfg.TRP + m.cfg.TRCD + m.cfg.TCAS
		} else {
			service = m.cfg.TRCD + m.cfg.TCAS
		}
		m.openRow[bank] = row
	}
	service += m.cfg.TBus + m.cfg.Queue

	m.freeAt[bank] = start + service
	return (start - now) + service
}

// MinReadLatency reports the best-case (row hit, idle bank) read latency.
func (m *Model) MinReadLatency() uint64 {
	return m.cfg.TCAS + m.cfg.TBus + m.cfg.Queue
}

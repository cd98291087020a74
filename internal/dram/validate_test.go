package dram

import "testing"

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must be valid (New substitutes defaults): %v", err)
	}
	if err := (Config{Channels: 4, BanksPer: 16, RowBytes: 8192}).Validate(); err != nil {
		t.Fatalf("explicit valid config rejected: %v", err)
	}
	bad := []Config{
		{Channels: -1},
		{BanksPer: -8},
		{RowBytes: 100},
		{RowBytes: 32}, // below one line
		{Channels: 3},  // 3 × 16 default banks
		{Channels: 2, BanksPer: 12},
		{BanksPer: 24},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", c)
		}
	}
}

// TestBankMappingMatchesDivision: the shift-and-mask bank mapping is the
// row-interleaved division it replaces, for every power-of-two geometry.
func TestBankMappingMatchesDivision(t *testing.T) {
	for _, c := range []Config{{}, {Channels: 1}, {Channels: 4, BanksPer: 8, RowBytes: 2048}, {Channels: 1, BanksPer: 1, RowBytes: 64}} {
		m := New(c)
		nbanks := uint64(m.cfg.Channels * m.cfg.BanksPer)
		for addr := uint64(0); addr < 1<<24; addr += 4099 {
			bank, row := m.bankOf(addr)
			rowNum := addr / m.cfg.RowBytes
			if bank != int(rowNum%nbanks) || row != int64(rowNum/nbanks) {
				t.Fatalf("%+v: bankOf(%#x) = (%d,%d), want (%d,%d)", c, addr, bank, row, rowNum%nbanks, rowNum/nbanks)
			}
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New must panic on a bank count that is not a power of two")
		}
	}()
	New(Config{Channels: 3})
}

package sim

import (
	"testing"

	"cosmos/internal/secmem"
	"cosmos/internal/trace"
)

// TestDRAMWriteConservation checks the system-level writeback conservation
// property over every registered design: DRAM write traffic decomposes
// exactly into LLC dirty evictions (the data writes) plus the
// secure-metadata writes the controller generates (counter writebacks, MAC
// writebacks, re-encryption bursts). Nothing else may write DRAM, and no
// dirty eviction may be dropped or double-counted.
func TestDRAMWriteConservation(t *testing.T) {
	for _, d := range secmem.AllDesigns() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			s := New(testConfig(), d)
			gen := trace.NewUniform(region(1<<26, 256<<20), 30, 11, 4)
			r := s.Run(trace.Limit(gen, 120000), 120000)

			chain := s.Chain(0)
			llc := chain[len(chain)-1].Cache()
			if llc.Stats.Writebacks == 0 {
				t.Fatal("no LLC dirty evictions; property vacuous")
			}
			if got, want := r.Traffic.DataWrite, llc.Stats.Writebacks; got != want {
				t.Fatalf("data DRAM writes %d != LLC dirty evictions %d", got, want)
			}
			meta := r.Traffic.CtrWrite + r.Traffic.MACWrite + r.Traffic.ReEncWrite
			if got, want := r.DRAM.Writes, r.Traffic.DataWrite+meta; got != want {
				t.Fatalf("DRAM writes %d != data %d + metadata %d",
					got, r.Traffic.DataWrite, meta)
			}
			if !d.Secure && meta != 0 {
				t.Fatalf("non-secure design generated %d metadata writes", meta)
			}
		})
	}
}

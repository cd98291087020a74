package sim

import (
	"testing"

	"cosmos/internal/core"
	"cosmos/internal/rl"
	"cosmos/internal/secmem"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

// goldenRun reproduces exactly what `cosmos-sim -design <d> -workload <w>
// -accesses 300000 -graph-nodes 300000 -seed 42` executes.
func goldenRun(t *testing.T, designName, workload string) Results {
	t.Helper()
	return goldenRunWith(t, designName, workload, nil)
}

// goldenRunWith is goldenRun with both predictor roles running the given
// policy spec (nil keeps the tabular default).
func goldenRunWith(t *testing.T, designName, workload string, policy *rl.PolicySpec) Results {
	t.Helper()
	d, err := secmem.DesignByName(designName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MC.Seed = 42
	cfg.MC.Params.Seed = 42
	cfg.MC.Params.DataPolicy = policy
	cfg.MC.Params.CtrPolicy = policy
	gen, err := workloads.Build(workload, workloads.Options{
		Threads: 4, Seed: 42, GraphNodes: 300000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg, d)
	return s.Run(trace.Limit(gen, 300000), 300000)
}

// The golden values below were captured from the pre-refactor simulator at
// the same commit the Level-chain rewrite branched from. The refactor must
// preserve them bit-for-bit: any drift here means the request-path
// abstraction changed the timing model, not just its structure.

func TestGoldenSecureDesign(t *testing.T) {
	r := goldenRun(t, "COSMOS", "DFS")
	check := func(name string, got, want any) {
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("Cycles", r.Cycles, uint64(5028126))
	check("IPC", r.IPC, 0.2386575038095704)
	check("L1MissRate", r.L1MissRate, 0.43781333333333333)
	check("L2MissRate", r.L2MissRate, 0.9812553295163845)
	check("LLCMissRate", r.LLCMissRate, 0.8414441116680375)
	check("CtrAccesses", r.CtrAccesses, uint64(128600))
	check("CtrMissRate", r.CtrMissRate, 0.7881726283048212)
	check("OffChipReads", r.OffChipReads, uint64(108447))
	check("Bypassed", r.Bypassed, uint64(84689))
	check("AvgFetchLat", r.AvgFetchLat, 681.3356939334421)
	check("SMAT", r.SMAT, 157.13540344112553)
	check("Traffic", r.Traffic, secmem.Traffic{
		DataRead: 108447, DataWrite: 834,
		CtrRead: 101359, CtrWrite: 797,
		MTRead: 28514, MACRead: 97904, MACWrite: 795,
		WastedDataFetch: 19314,
	})
	check("DRAM.Reads", r.DRAM.Reads, uint64(355538))
	check("DRAM.Writes", r.DRAM.Writes, uint64(2426))
	if r.DataPred == nil || r.DataPred.PredOffCorrect != 84689 {
		t.Errorf("DataPred = %+v, want PredOffCorrect 84689", r.DataPred)
	}
}

func TestGoldenBaselineDesign(t *testing.T) {
	r := goldenRun(t, "NP", "mcf")
	check := func(name string, got, want any) {
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("Cycles", r.Cycles, uint64(18250284))
	check("IPC", r.IPC, 0.06575240144208166)
	check("L1MissRate", r.L1MissRate, 0.72729)
	check("L2MissRate", r.L2MissRate, 0.9967275777200292)
	check("LLCMissRate", r.LLCMissRate, 0.982186294390568)
	check("CtrAccesses", r.CtrAccesses, uint64(0))
	check("OffChipReads", r.OffChipReads, uint64(213599))
	check("Bypassed", r.Bypassed, uint64(0))
	check("AvgFetchLat", r.AvgFetchLat, 851.8353643977734)
	check("SMAT", r.SMAT, 211.79386610549642)
	check("Traffic", r.Traffic, secmem.Traffic{DataRead: 213599, DataWrite: 1214})
	check("DRAM.Writes", r.DRAM.Writes, uint64(1214))
}

// TestGoldenLearnedPolicies pins COSMOS on mcf with both predictor roles
// running each non-tabular policy. The values were captured before the
// policies gained their forward-pass memo, so any drift means the memo
// changed a decision, value, score or weight update rather than only
// skipping recomputation.
func TestGoldenLearnedPolicies(t *testing.T) {
	for _, tc := range []struct {
		kind        string
		cycles      uint64
		ctrMissRate float64
		traffic     secmem.Traffic
		dataPred    core.DataStats
		ctrPred     core.CtrStats
	}{
		{
			kind: rl.KindPerceptron, cycles: 17537590, ctrMissRate: 0.9971376611774787,
			traffic: secmem.Traffic{
				DataRead: 213599, DataWrite: 1214,
				CtrRead: 218773, CtrWrite: 1206,
				MTRead: 161822, MACRead: 214627, MACWrite: 1167,
				WastedDataFetch: 4588,
			},
			dataPred: core.DataStats{PredOffCorrect: 213599, PredOffWrong: 4588},
			ctrPred: core.CtrStats{
				PredGood: 218261, PredBad: 1140,
				CETHits: 218571, CETMisses: 830, Evictions: 156471,
			},
		},
		{
			kind: rl.KindMLP, cycles: 18024005, ctrMissRate: 0.9625098046369092,
			traffic: secmem.Traffic{
				DataRead: 213599, DataWrite: 1214,
				CtrRead: 211063, CtrWrite: 1149,
				MTRead: 265037, MACRead: 214627, MACWrite: 1167,
				WastedDataFetch: 4471,
			},
			dataPred: core.DataStats{
				PredOnCorrect: 117, PredOnWrong: 4550,
				PredOffCorrect: 209049, PredOffWrong: 4471,
			},
			ctrPred: core.CtrStats{
				PredGood: 98729, PredBad: 120555,
				CETHits: 218454, CETMisses: 830, Evictions: 156415,
			},
		},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			r := goldenRunWith(t, "COSMOS", "mcf", &rl.PolicySpec{Kind: tc.kind})
			check := func(name string, got, want any) {
				if got != want {
					t.Errorf("%s = %+v, want %+v", name, got, want)
				}
			}
			check("Cycles", r.Cycles, tc.cycles)
			check("CtrMissRate", r.CtrMissRate, tc.ctrMissRate)
			check("Traffic", r.Traffic, tc.traffic)
			if r.DataPred == nil || r.CtrPred == nil {
				t.Fatalf("DataPred = %v, CtrPred = %v, want both set", r.DataPred, r.CtrPred)
			}
			check("DataPred", *r.DataPred, tc.dataPred)
			check("CtrPred", *r.CtrPred, tc.ctrPred)
		})
	}
}

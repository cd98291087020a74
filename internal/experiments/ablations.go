package experiments

import (
	"fmt"

	"cosmos/internal/core"
	"cosmos/internal/graph"
	"cosmos/internal/memsys"
	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/stats"
	"cosmos/internal/trace"
	"cosmos/internal/workloads"
)

// Ablations beyond the paper's figures: they isolate the modelling and
// design choices DESIGN.md calls out. Run with `cosmos-bench -exp abl-*`.

// AblLayout contrasts the heap-scattered workload layout (GraphBIG-style
// vertex objects) with a packed CSR layout: packing manufactures spatial
// locality that MorphCtr's 1:128 counter coverage absorbs, hiding the very
// problem the paper attacks.
func AblLayout(l *Lab) *stats.Table {
	t := stats.NewTable("Ablation: heap-scattered vs packed CSR layout (DFS, MorphCtr)",
		"layout", "ctr-miss", "llc-miss", "mt-reads")
	for _, scattered := range []bool{true, false} {
		if l.Err() != nil || l.planning() {
			break
		}
		g := workloads.Graph(l.Scale.GraphNodes, l.Scale.GraphDegree, l.Scale.Seed)
		var w *graph.Workspace
		name := "packed-CSR"
		if scattered {
			w = graph.NewWorkspace(g, 4, 1<<30)
			name = "heap-scattered"
		} else {
			w = graph.NewPackedWorkspace(g, 4, 1<<30)
		}
		// The packed workspace has no workloads.Build name, so this cell
		// bypasses the orchestrator; it still honours the lab's context.
		gen, _ := graph.DFS(w, l.Scale.Seed)
		cfg := sim.DefaultConfig()
		cfg.MC.Seed = l.Scale.Seed
		s := sim.New(cfg, secmem.DesignMorph())
		r, err := s.RunContext(l.ctx, trace.Limit(gen, l.Scale.Accesses), l.Scale.Accesses)
		if err != nil {
			l.fail(fmt.Errorf("experiments: abl-layout %s: %w", name, err))
			break
		}
		t.Row(name, stats.Pct(r.CtrMissRate), stats.Pct(r.LLCMissRate), r.Traffic.MTRead)
	}
	return t
}

// AblTraversal compares stop-at-hit Merkle traversal (MT nodes cached in
// the metadata cache) with the paper's full log-depth accounting.
func AblTraversal(l *Lab) *stats.Table {
	t := stats.NewTable("Ablation: MT traversal accounting (DFS, MorphCtr)",
		"mode", "mt-reads", "total-traffic", "cycles")
	for _, full := range []bool{false, true} {
		cfg := sim.DefaultConfig()
		cfg.MC.Seed = l.Scale.Seed
		cfg.MC.FullTraversal = full
		name := "stop-at-hit"
		if full {
			name = "full-traversal"
		}
		r := l.runCfg("DFS", "DFS_MorphCtr_"+name, secmem.DesignMorph(), cfg, l.Scale.Accesses)
		t.Row(name, r.Traffic.MTRead, r.Traffic.Total(), r.Cycles)
	}
	return t
}

// AblLCR pits LCR against plain LRU and the Fig 5 policies at the same
// 128KB capacity under full COSMOS's early-access stream — the
// apples-to-apples replacement comparison Fig 11 implies.
func AblLCR(l *Lab) *stats.Table {
	t := stats.NewTable("Ablation: CTR replacement at equal 128KB capacity (DFS, early access)",
		"policy", "ctr-miss", "cycles")
	full := l.run("DFS", secmem.DesignCosmos(), runOpts{})
	t.Row("LCR (COSMOS)", stats.Pct(full.CtrMissRate), full.Cycles)
	dp := l.run("DFS", secmem.DesignCosmosDP(), runOpts{})
	t.Row("LRU (COSMOS-DP)", stats.Pct(dp.CtrMissRate), dp.Cycles)
	for _, pol := range []string{"RRIP", "SHiP", "Mockingjay", "Random"} {
		d := secmem.DesignCosmosDP()
		r := l.run("DFS", d, runOpts{ctrPolicy: pol, ctrBytes: 128 << 10})
		t.Row(pol, stats.Pct(r.CtrMissRate), r.Cycles)
	}
	return t
}

// AblQuantization checks that the 8-bit hardware Q-value representation
// (Table 2) agrees with the float learner on greedy decisions after
// training on a real stream — the fidelity claim behind the 16-bit/entry
// storage budget.
func AblQuantization(l *Lab) *stats.Table {
	t := stats.NewTable("Ablation: float vs 8-bit quantized Q decisions", "predictor", "agreement")
	if l.planning() {
		return t // the training stream runs outside the lab
	}
	p := core.DefaultParams()
	dp := core.NewDataPredictor(p)
	gen, err := buildWorkload(l, "DFS", 4)
	if err != nil {
		l.fail(fmt.Errorf("experiments: abl-quant: %w", err))
		return t
	}
	defer trace.CloseIfCloser(gen)
	var buf [256]memsys.Access
	for n := l.Scale.Accesses / 4; n > 0; {
		m := gen.NextBlock(buf[:min(n, uint64(len(buf)))])
		if m == 0 {
			break
		}
		for _, a := range buf[:m] {
			pr := dp.Predict(uint64(a.Addr))
			// synthetic ground truth: large-region addresses are off-chip
			dp.Learn(pr, a.Addr.Line()%3 != 0)
		}
		n -= uint64(m)
	}
	t.Row("data location", stats.Pct(quantAgreement(p.QStates, dp)))
	return t
}

func quantAgreement(states int, dp *core.DataPredictor) float64 {
	agree := 0
	tbl := dp.Table()
	for s := 0; s < states; s++ {
		bestF, _ := tbl.Best(s)
		bestQ := 0
		if tbl.Quantize(s, 1) > tbl.Quantize(s, 0) {
			bestQ = 1
		}
		if bestF == bestQ {
			agree++
		}
	}
	return float64(agree) / float64(states)
}

// buildWorkload builds a workload with the lab's scale parameters.
func buildWorkload(l *Lab, name string, threads int) (trace.Generator, error) {
	return workloads.Build(name, workloads.Options{
		Threads:     threads,
		Seed:        l.Scale.Seed,
		GraphNodes:  l.Scale.GraphNodes,
		GraphDegree: l.Scale.GraphDegree,
	})
}

// AblMEE contrasts the Bonsai-style metadata organisation the paper builds
// on (MorphCtr counters as tree leaves, 1:128 coverage) with an
// SGX-MEE-style organisation (counters and tree over 8-line groups): the
// deeper tree and denser counters multiply metadata traffic — the cost that
// motivated split counters and MorphCtr in the first place (§2.2).
func AblMEE(l *Lab) *stats.Table {
	t := stats.NewTable("Ablation: Bonsai/MorphCtr metadata vs SGX-MEE-style tree (DFS, MorphCtr)",
		"organisation", "ctr-miss", "mt-reads", "total-traffic", "cycles")
	for _, mee := range []bool{false, true} {
		cfg := sim.DefaultConfig()
		cfg.MC.Seed = l.Scale.Seed
		cfg.MC.MEETree = mee
		name := "Bonsai + MorphCtr (1:128)"
		label := "DFS_MorphCtr_bonsai"
		if mee {
			name = "SGX-MEE style (1:8)"
			label = "DFS_MorphCtr_mee"
		}
		r := l.runCfg("DFS", label, secmem.DesignMorph(), cfg, l.Scale.Accesses)
		t.Row(name, stats.Pct(r.CtrMissRate), r.Traffic.MTRead, r.Traffic.Total(), r.Cycles)
	}
	return t
}

// AblHyper sweeps the CTR predictor's learning rate and discount around the
// tuned point (Table 1), reporting the LCR-CTR hit rate — the §4.5
// sensitivity picture: the tuned values should sit at or near the top.
func AblHyper(l *Lab) *stats.Table {
	t := stats.NewTable("Ablation: CTR-predictor hyper-parameter sensitivity (DFS)",
		"alpha_C", "gamma_C", "ctr-hit")
	for _, alpha := range []float64{0.01, 0.05, 0.2, 0.8} {
		for _, gamma := range []float64{0.05, 0.35, 0.9} {
			cfg := sim.DefaultConfig()
			cfg.MC.Seed = l.Scale.Seed
			cfg.MC.Params.Seed = l.Scale.Seed
			cfg.MC.Params.Ctr.Alpha = alpha
			cfg.MC.Params.Ctr.Gamma = gamma
			label := fmt.Sprintf("DFS_COSMOS_a%g_g%g", alpha, gamma)
			r := l.runCfg("DFS", label, secmem.DesignCosmos(), cfg, l.Scale.Accesses/2)
			t.Row(alpha, gamma, stats.Pct(1-r.CtrMissRate))
		}
	}
	return t
}

// TabPower reproduces the §4.6 area/power accounting.
func TabPower(*Lab) *stats.Table {
	t := stats.NewTable("§4.6: COSMOS area and power (28nm SRAM compiler, 0.9V, 25C, 3GHz)",
		"component", "area-mm2", "power-mW")
	for _, c := range core.PaperAreaPower() {
		t.Row(c.Component, c.AreaMM2, c.PowerMW)
	}
	a, p := core.TotalAreaPower()
	t.Row("Total", a, p)
	return t
}

// ExtEPC sweeps an SGXv1-style bounded secure region (§3.1 motivates the
// move beyond the <128MB EPC): with a small protected range most accesses
// skip the metadata machinery; as the region grows toward full-memory
// protection, the MorphCtr overhead emerges and COSMOS's gain with it.
func ExtEPC(l *Lab) *stats.Table {
	t := stats.NewTable("Extension: SGXv1-style secure-region size sweep (DFS)",
		"region", "Morph-vs-NP", "COSMOS-vs-NP", "COSMOS-gain")
	np := func() uint64 {
		cfg := sim.DefaultConfig()
		cfg.MC.Seed = l.Scale.Seed
		return l.runCfg("DFS", "DFS_NP_epc", secmem.DesignNP(), cfg, l.Scale.Accesses).Cycles
	}()
	// Workload heaps start at 1GB; the bound is the EPC's top, so a
	// region of 1GB+128MB protects the first 128MB of the heap.
	heapBase := uint64(1 << 30)
	for _, region := range []uint64{heapBase + 128<<20, heapBase + 1<<30, 0} {
		var cyc [2]uint64
		for i, d := range []secmem.Design{secmem.DesignMorph(), secmem.DesignCosmos()} {
			cfg := sim.DefaultConfig()
			cfg.MC.Seed = l.Scale.Seed
			cfg.MC.Params.Seed = l.Scale.Seed
			cfg.MC.SecureRegionBytes = region
			label := fmt.Sprintf("DFS_%s_region%d", d.Name, region)
			cyc[i] = l.runCfg("DFS", label, d, cfg, l.Scale.Accesses).Cycles
		}
		name := "all memory"
		if region != 0 {
			name = memsys.Bytes(region-heapBase) + " of heap"
		}
		if cyc[0] == 0 || cyc[1] == 0 {
			continue // a run failed (Experiment.Run reports it) or is being planned
		}
		m := float64(np) / float64(cyc[0])
		c := float64(np) / float64(cyc[1])
		t.Row(name, m, c, fmt.Sprintf("%+.1f%%", 100*(c/m-1)))
	}
	return t
}

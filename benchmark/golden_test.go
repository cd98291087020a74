package main

import (
	"strings"
	"testing"

	"cosmos/internal/sim"
)

// TestGoldenCatchesOneFieldPerturbation: changing any single simulated
// statistic of a cell changes its digest, and the golden check counts the
// cell as failed and names it.
func TestGoldenCatchesOneFieldPerturbation(t *testing.T) {
	r := sim.Results{Design: "COSMOS", Workload: "mcf", Accesses: 1000, Cycles: 52_000, IPC: 0.0769}
	golden := map[string]string{"irregular/mcf_COSMOS": digest(r)}
	cell := func(r sim.Results) []cellResult {
		return []cellResult{{Label: "mcf_COSMOS", Workload: "mcf", Design: "COSMOS", Digest: digest(r)}}
	}

	if failed, problems := checkCells("irregular", cell(r), map[string]string{}, golden); failed != 0 {
		t.Fatalf("unperturbed cell failed: %v", problems)
	}
	r.Cycles++
	failed, problems := checkCells("irregular", cell(r), map[string]string{}, golden)
	if failed != 1 || len(problems) != 1 || !strings.Contains(problems[0], "irregular/mcf_COSMOS") {
		t.Fatalf("perturbed cell: failed=%d problems=%v", failed, problems)
	}
}

// TestRepetitionsMustAgree: under any seed, a cell whose digest differs from
// an earlier repetition's fails even without goldens.
func TestRepetitionsMustAgree(t *testing.T) {
	first := map[string]string{}
	rep := func(d string) []cellResult { return []cellResult{{Label: "ResNet_NP", Digest: d}} }
	if failed, _ := checkCells("regular-writes", rep("aa"), first, nil); failed != 0 {
		t.Fatal("first repetition failed")
	}
	if failed, _ := checkCells("regular-writes", rep("aa"), first, nil); failed != 0 {
		t.Fatal("agreeing repetition failed")
	}
	if failed, _ := checkCells("regular-writes", rep("ab"), first, nil); failed != 1 {
		t.Fatal("disagreeing repetition passed")
	}
}

// TestGoldenCoversEveryCell keeps golden.json in step with the workload
// definitions: every full-size single-run cell has a digest, and so do the
// 55 cells fig10 executes.
func TestGoldenCoversEveryCell(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if g.Seed != canonicalSeed {
		t.Fatalf("golden seed %d, want %d", g.Seed, canonicalSeed)
	}
	want := 0
	for _, w := range workloadNames {
		for _, c := range cellsOf(w, fullSizes()) {
			want++
			if g.Cells[w+"/"+c.label()] == "" {
				t.Errorf("no golden digest for %s/%s", w, c.label())
			}
		}
	}
	campaign := 0
	for k := range g.Cells {
		if strings.HasPrefix(k, wCampaign+"/") {
			campaign++
		}
	}
	if campaign != 55 {
		t.Errorf("golden holds %d campaign cells, want the 55 fig10 executes", campaign)
	}
	if len(g.Cells) != want+campaign {
		t.Errorf("golden holds %d cells, want %d", len(g.Cells), want+campaign)
	}
}

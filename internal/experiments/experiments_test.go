package experiments

import (
	"context"
	"strings"
	"testing"

	"cosmos/internal/rl"
	"cosmos/internal/runner"
	"cosmos/internal/secmem"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig2", "fig3", "fig4", "fig5", "tab1", "fig8", "fig9",
		"tab2", "tab3", "tab4", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17",
		"abl-layout", "abl-traversal", "abl-lcr", "abl-quant", "abl-mee", "abl-hyper",
		"tab-power", "ext-epc"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("%d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Gen == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := ByID("fig2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestScales(t *testing.T) {
	small, def := SmallScale(), DefaultScale()
	if small.Accesses >= def.Accesses || small.GraphNodes >= def.GraphNodes {
		t.Fatal("small scale must be smaller")
	}
	if len(def.Fig8Points) == 0 || def.Fig8Points[len(def.Fig8Points)-1] != def.Accesses {
		t.Fatal("fig8 checkpoints must end at the access budget")
	}
	if s := Scaled(0); s.Accesses != small.Accesses {
		t.Fatal("Scaled(0) should be SmallScale")
	}
	if s := Scaled(0.5); s.Accesses != def.Accesses/2 {
		t.Fatalf("Scaled(0.5) accesses = %d", s.Accesses)
	}
	if s := Scaled(2); s.Accesses != def.Accesses*2 {
		t.Fatal("Scaled(2) should double")
	}
}

func TestLabMemoisation(t *testing.T) {
	l := NewLab(SmallScale())
	a := l.run("mcf", secmem.DesignNP(), runOpts{})
	if got := l.Orchestrator().Stats().Executed; got != 1 {
		t.Fatalf("first run executed %d simulations, want 1", got)
	}
	b := l.run("mcf", secmem.DesignNP(), runOpts{})
	st := l.Orchestrator().Stats()
	if st.Executed != 1 || st.Memoised != 1 {
		t.Fatalf("identical run was not memoised: %+v", st)
	}
	if a.Cycles != b.Cycles {
		t.Fatal("memoised result differs")
	}
	l.run("mcf", secmem.DesignMorph(), runOpts{})
	if got := l.Orchestrator().Stats().Executed; got != 2 {
		t.Fatalf("distinct design should execute a new simulation, executed=%d", got)
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestLabCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := NewLab(SmallScale(), WithContext(ctx))
	r := l.run("mcf", secmem.DesignNP(), runOpts{})
	if err := l.Err(); err == nil {
		t.Fatal("cancelled lab must record an error")
	}
	if r.Cycles != 0 {
		t.Fatal("cancelled run must return zero results")
	}
	// Once failed, experiments report the error instead of a table.
	e, _ := ByID("tab1")
	if _, err := e.Run(l); err == nil {
		t.Fatal("Experiment.Run on a failed lab must error")
	}
}

func TestLabResume(t *testing.T) {
	sc := Scale{GraphNodes: 40_000, GraphDegree: 4, Accesses: 30_000, Seed: 42,
		Fig8Points: []uint64{30_000}}
	dir := t.TempDir()

	st1, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := NewLab(sc, WithStore(st1))
	e, _ := ByID("fig10")
	a, err := e.Run(first)
	if err != nil {
		t.Fatal(err)
	}
	if got := first.Orchestrator().Stats().Executed; got == 0 {
		t.Fatal("first lab should have executed simulations")
	}

	st2, err := runner.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	second := NewLab(sc, WithStore(st2))
	b, err := e.Run(second)
	if err != nil {
		t.Fatal(err)
	}
	stats := second.Orchestrator().Stats()
	if stats.Executed != 0 {
		t.Fatalf("resumed lab executed %d simulations, want 0", stats.Executed)
	}
	if stats.Restored == 0 {
		t.Fatal("resumed lab restored nothing from the store")
	}
	if a.String() != b.String() {
		t.Fatalf("restored table differs from computed one:\n%s\nvs\n%s", a, b)
	}
}

func TestPerfNormalisation(t *testing.T) {
	l := NewLab(SmallScale())
	p := l.perf("canneal", secmem.DesignMorph(), runOpts{})
	if p <= 0 || p >= 1 {
		t.Fatalf("MorphCtr perf vs NP = %v, want in (0,1)", p)
	}
}

// TestPolicyLabReusesBaselineCells holds a policy campaign to the designs
// that build a predictor for the role: fig10 under a perceptron on both
// roles restores its 22 NP and MorphCtr cells from a plain lab's store and
// executes only the 33 COSMOS variants. A data-only policy leaves COSMOS-CP
// (no data predictor) on its baseline spec too.
func TestPolicyLabReusesBaselineCells(t *testing.T) {
	sc := Scale{GraphNodes: 20_000, GraphDegree: 4, Accesses: 10_000, Seed: 42,
		Fig8Points: []uint64{10_000}}
	dir := t.TempDir()
	open := func() *runner.Store {
		st, err := runner.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	e, _ := ByID("fig10")
	if _, err := e.Run(NewLab(sc, WithStore(open()))); err != nil {
		t.Fatal(err)
	}
	perc := &rl.PolicySpec{Kind: rl.KindPerceptron}
	pol := NewLab(sc, WithStore(open()), WithPolicy(perc, perc))
	if _, err := e.Run(pol); err != nil {
		t.Fatal(err)
	}
	if st := pol.Orchestrator().Stats(); st.Restored != 22 || st.Executed != 33 {
		t.Fatalf("policy fig10 restored %d and executed %d cells, want 22 and 33", st.Restored, st.Executed)
	}

	plain, dataOnly := NewLab(sc), NewLab(sc, WithPolicy(perc, nil))
	for _, d := range []secmem.Design{secmem.DesignNP(), secmem.DesignMorph(), secmem.DesignEMCC(),
		secmem.DesignRMCC(), secmem.DesignCosmosCP()} {
		if got, want := dataOnly.spec("mcf", d, runOpts{}).Key(), plain.spec("mcf", d, runOpts{}).Key(); got != want {
			t.Errorf("%s: a data-only policy moved the spec key", d.Name)
		}
	}
	if dataOnly.spec("mcf", secmem.DesignCosmosDP(), runOpts{}).Key() == plain.spec("mcf", secmem.DesignCosmosDP(), runOpts{}).Key() {
		t.Error("COSMOS-DP: a data policy did not enter the spec key")
	}
}

// TestKeyShapes verifies — at small scale — the directional claims the full
// reproduction must exhibit.
func TestKeyShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test runs several simulations")
	}
	l := NewLab(SmallScale())

	// Fig 2 shape: secure memory inflates traffic and misses CTRs.
	morph := l.run("DFS", secmem.DesignMorph(), runOpts{ctrBytes: charCtrBytes})
	np := l.run("DFS", secmem.DesignNP(), runOpts{ctrBytes: charCtrBytes})
	if morph.Traffic.Total() <= np.Traffic.Total() {
		t.Error("fig2: MorphCtr must add traffic over NP")
	}
	if morph.CtrMissRate < 0.3 {
		t.Errorf("fig2: CTR miss rate %.2f too low for irregular workload", morph.CtrMissRate)
	}

	// Fig 10 shape: full COSMOS beats the MorphCtr baseline.
	base := l.perf("DFS", secmem.DesignMorph(), runOpts{})
	cos := l.perf("DFS", secmem.DesignCosmos(), runOpts{})
	if cos <= base {
		t.Errorf("fig10: COSMOS (%.3f) must beat MorphCtr (%.3f)", cos, base)
	}

	// Fig 16 shape (small-scale direction): EMCC beats the baseline.
	// COSMOS overtakes EMCC only at full scale, once EMCC's 4x-larger
	// CTR cache saturates (see EXPERIMENTS.md).
	emcc := l.perf("DFS", secmem.DesignEMCC(), runOpts{})
	if emcc <= base {
		t.Errorf("fig16: EMCC (%.3f) must beat MorphCtr (%.3f)", emcc, base)
	}

	// Fig 12 shape: data predictor is usefully accurate.
	full := l.run("DFS", secmem.DesignCosmos(), runOpts{})
	if full.DataPred == nil || full.DataPred.Accuracy() < 0.5 {
		t.Error("fig12: data prediction accuracy below coin flip")
	}

	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTablesRender(t *testing.T) {
	l := NewLab(SmallScale())
	for _, id := range []string{"tab1", "tab2", "tab3", "tab4"} {
		e, _ := ByID(id)
		tbl, err := e.Run(l)
		if err != nil {
			t.Fatal(err)
		}
		out := tbl.String()
		if !strings.Contains(out, "==") || len(out) < 50 {
			t.Errorf("%s rendered %q", id, out)
		}
	}
}

func TestTab2MatchesPaperStructure(t *testing.T) {
	e, _ := ByID("tab2")
	tbl, err := e.Run(NewLab(SmallScale()))
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"Data Q-Table", "CTR Q-Table", "CET", "LCR-CTR cache", "32768", "66560"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab2 missing %q:\n%s", want, out)
		}
	}
}

// TestEveryExperimentRuns executes the complete registry at smoke scale:
// no experiment may fail or render an empty table.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	sc := Scale{GraphNodes: 60_000, GraphDegree: 4, Accesses: 60_000, Seed: 42,
		Fig8Points: []uint64{30_000, 60_000}}
	l := NewLab(sc)
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(l)
			if err != nil {
				t.Fatal(err)
			}
			if out == nil || len(out.String()) < 40 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestPrewarmMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the evaluation matrix twice")
	}
	sc := Scale{GraphNodes: 40_000, GraphDegree: 4, Accesses: 30_000, Seed: 42,
		Fig8Points: []uint64{30_000}}
	ids := []string{"fig3", "fig10", "fig16", "fig17", "abl-mee", "ext-epc"}
	var exps []Experiment
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	serial := NewLab(sc)
	parallel := NewLab(sc, WithWorkers(8))
	if err := Prewarm(parallel, exps...); err != nil {
		t.Fatal(err)
	}
	// Any table rendered from the prewarmed lab must equal the serial one,
	// which Gen renders cell by cell, each simulated on its own.
	for _, e := range exps {
		a := e.Gen(serial)
		if err := serial.Err(); err != nil {
			t.Fatal(err)
		}
		b, err := e.Run(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s differs between serial and prewarmed labs:\n%s\nvs\n%s", e.ID, a, b)
		}
	}
}

// TestPrewarmCoversRendering holds the planning pass to the generators: after
// Prewarm(l, e), rendering e must execute no new lab cell, for every
// experiment. (abl-layout and abl-quant simulate outside the lab, so they
// have no lab cells to plan.)
func TestPrewarmCoversRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	sc := Scale{GraphNodes: 20_000, GraphDegree: 4, Accesses: 10_000, Seed: 42,
		Fig8Points: []uint64{5_000, 10_000}}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			l := NewLab(sc, WithWorkers(2))
			if err := Prewarm(l, e); err != nil {
				t.Fatal(err)
			}
			before := l.Orchestrator().Stats().Executed
			if _, err := e.Run(l); err != nil {
				t.Fatal(err)
			}
			if n := l.Orchestrator().Stats().Executed - before; n != 0 {
				t.Errorf("%s executed %d cells at render after Prewarm, want 0", e.ID, n)
			}
		})
	}
}

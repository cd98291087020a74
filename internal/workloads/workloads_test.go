package workloads

import (
	"sync"
	"testing"

	"cosmos/internal/graph"
	"cosmos/internal/memsys"
	"cosmos/internal/trace"
)

func take(t *testing.T, g trace.Generator, n int) []memsys.Access {
	t.Helper()
	out := make([]memsys.Access, n)
	got := 0
	for got < n {
		m := g.NextBlock(out[got:])
		if m == 0 {
			break
		}
		got += m
	}
	trace.CloseIfCloser(g)
	return out[:got]
}

func distinctLines(accs []memsys.Access) int {
	m := map[uint64]bool{}
	for _, a := range accs {
		m[a.Addr.Line()] = true
	}
	return len(m)
}

func TestSpecWorkloadsStreamEndlessly(t *testing.T) {
	for _, name := range SpecNames() {
		g, err := Build(name, Options{Threads: 4, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		accs := take(t, g, 20000)
		if len(accs) != 20000 {
			t.Fatalf("%s: stream ended after %d accesses", name, len(accs))
		}
		threads := map[uint8]bool{}
		for _, a := range accs {
			threads[a.Thread] = true
		}
		if len(threads) != 4 {
			t.Fatalf("%s: saw %d threads, want 4", name, len(threads))
		}
	}
}

func TestIrregularWorkloadsHaveLargeFootprint(t *testing.T) {
	// The whole point of mcf/canneal/omnetpp: the touched footprint keeps
	// growing (low reuse). 50k accesses must touch tens of thousands of
	// distinct lines.
	for _, name := range SpecNames() {
		g, _ := Build(name, Options{Threads: 4, Seed: 5})
		accs := take(t, g, 50000)
		if d := distinctLines(accs); d < 10000 {
			t.Errorf("%s: only %d distinct lines in 50k accesses — too regular", name, d)
		}
	}
}

func TestMLWorkloadsAreSequentialHeavy(t *testing.T) {
	g := Inference(alexNet(), 4, 1)
	accs := take(t, g, 50000)
	if len(accs) != 50000 {
		t.Fatal("inference should stream endlessly")
	}
	// Count +1-line deltas per thread: weight streaming should make
	// sequential steps dominate.
	lastByThread := map[uint8]uint64{}
	seq, tot := 0, 0
	for _, a := range accs {
		if last, ok := lastByThread[a.Thread]; ok {
			if a.Addr.Line() == last+1 {
				seq++
			}
			tot++
		}
		lastByThread[a.Thread] = a.Addr.Line()
	}
	if float64(seq)/float64(tot) < 0.5 {
		t.Errorf("ML stream only %.1f%% sequential", 100*float64(seq)/float64(tot))
	}
}

func TestMLWorkloadsWriteActivations(t *testing.T) {
	g := MLP(4, 1)
	accs := take(t, g, 200000)
	writes := 0
	for _, a := range accs {
		if a.Type == memsys.Write {
			writes++
		}
	}
	if writes == 0 {
		t.Fatal("inference must write activations")
	}
}

func TestDLRMGathersAreIrregular(t *testing.T) {
	g := DLRM(8, 100_000, 4, 3)
	accs := take(t, g, 50000)
	emb := 0
	for _, a := range accs {
		if a.Region == sigEmbed {
			emb++
		}
	}
	if emb == 0 {
		t.Fatal("DLRM must perform embedding gathers")
	}
	if d := distinctLines(accs); d < 5000 {
		t.Errorf("DLRM gathers touched only %d lines", d)
	}
}

func TestBuildAllNames(t *testing.T) {
	for _, name := range AllNames() {
		opts := Options{Threads: 2, Seed: 1, GraphNodes: 2000, GraphDegree: 4}
		g, err := Build(name, opts)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		accs := take(t, g, 1000)
		if len(accs) == 0 {
			t.Fatalf("Build(%s): empty stream", name)
		}
	}
	if _, err := Build("nope", Options{}); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestGraphCacheReuse(t *testing.T) {
	o := Options{Threads: 2, Seed: 1, GraphNodes: 3000, GraphDegree: 4}
	g1, err := BuildGraph("BFS", o)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := BuildGraph("DFS", o)
	if err != nil {
		t.Fatal(err)
	}
	a1 := take(t, g1, 100)
	a2 := take(t, g2, 100)
	if len(a1) == 0 || len(a2) == 0 {
		t.Fatal("cached-graph workloads must stream")
	}
}

// TestGraphCacheSingleFlight starts eight cold callers on a fresh key at
// once: one of them builds the graph and all of them share that build.
func TestGraphCacheSingleFlight(t *testing.T) {
	o := Options{Threads: 2, Seed: 0x5f1e, GraphNodes: 20000, GraphDegree: 8}
	const callers = 8
	got := make([]*graph.Graph, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			gen, err := BuildGraph("DC", o)
			if err != nil {
				t.Error(err)
				return
			}
			trace.CloseIfCloser(gen)
			got[i] = Graph(o.GraphNodes, o.GraphDegree, o.Seed)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, g := range got {
		if g == nil || g != got[0] {
			t.Fatalf("caller %d got graph %p, caller 0 got %p", i, g, got[0])
		}
	}
}

func TestIsIrregular(t *testing.T) {
	for _, n := range []string{"DFS", "mcf"} {
		if !IsIrregular(n) {
			t.Errorf("%s should be irregular", n)
		}
	}
	for _, n := range []string{"BERT", "MLP"} {
		if IsIrregular(n) {
			t.Errorf("%s should be regular", n)
		}
	}
}

func TestModelByName(t *testing.T) {
	if _, ok := ModelByName("BERT"); !ok {
		t.Fatal("BERT missing")
	}
	if _, ok := ModelByName("GPT-9"); ok {
		t.Fatal("unknown model resolved")
	}
	for _, m := range MLModels() {
		var total uint64
		for _, l := range m.Layers {
			total += l.WeightBytes
		}
		if total < 1<<20 {
			t.Errorf("%s weights %d bytes — too small to be the paper's model", m.Name, total)
		}
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	for _, name := range []string{"mcf", "DLRM", "BFS"} {
		o := Options{Threads: 2, Seed: 9, GraphNodes: 2000, GraphDegree: 4}
		g1, _ := Build(name, o)
		g2, _ := Build(name, o)
		a1 := take(t, g1, 2000)
		a2 := take(t, g2, 2000)
		if len(a1) != len(a2) {
			t.Fatalf("%s: lengths differ", name)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("%s: streams diverge at %d: %v vs %v", name, i, a1[i], a2[i])
			}
		}
	}
}

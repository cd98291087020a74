package graph

import (
	"testing"

	"cosmos/internal/memsys"
	"cosmos/internal/trace"
)

func smallGraph() *Graph {
	// Two triangles joined by a bridge, plus an isolated pair:
	// 0-1-2-0, 2-3, 3-4-5-3, 6-7
	return FromEdgeList(8, [][2]uint32{
		{0, 1}, {1, 2}, {2, 0},
		{2, 3},
		{3, 4}, {4, 5}, {5, 3},
		{6, 7},
	})
}

// drainAll drains g to exhaustion, failing the test if the stream reaches
// max accesses.
func drainAll(t *testing.T, g trace.Generator, max int) []memsys.Access {
	t.Helper()
	var out []memsys.Access
	var buf [256]memsys.Access
	for {
		m := g.NextBlock(buf[:])
		if m == 0 {
			return out
		}
		out = append(out, buf[:m]...)
		if len(out) >= max {
			t.Fatalf("generator exceeded %d accesses", max)
		}
	}
}

func TestFromEdgeListCSR(t *testing.T) {
	g := smallGraph()
	if g.N != 8 || g.NumEdges() != 16 {
		t.Fatalf("N=%d E=%d", g.N, g.NumEdges())
	}
	if g.Degree(2) != 3 {
		t.Fatalf("deg(2)=%d, want 3", g.Degree(2))
	}
	nb := g.Neighbors(2)
	want := []uint32{0, 1, 3} // sorted adjacency
	if len(nb) != 3 {
		t.Fatalf("neighbors(2) = %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("neighbors(2) = %v, want %v (sorted)", nb, want)
		}
	}
	if g.Degree(6) != 1 || g.Neighbors(6)[0] != 7 {
		t.Fatal("isolated pair wrong")
	}
}

func TestSelfLoopsDropped(t *testing.T) {
	g := FromEdgeList(3, [][2]uint32{{0, 0}, {0, 1}})
	if g.NumEdges() != 2 {
		t.Fatalf("self loop not dropped: E=%d", g.NumEdges())
	}
}

func TestBarabasiAlbertShape(t *testing.T) {
	g := NewBarabasiAlbert(2000, 4, 7)
	if g.N != 2000 {
		t.Fatal("node count")
	}
	// Average degree ≈ 2m = 8.
	avg := float64(g.NumEdges()) / float64(g.N)
	if avg < 6 || avg > 10 {
		t.Fatalf("avg degree %.1f, want ≈8", avg)
	}
	// Power-law: the max degree should far exceed the average.
	maxDeg := 0
	for v := uint32(0); v < uint32(g.N); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if float64(maxDeg) < avg*5 {
		t.Fatalf("max degree %d vs avg %.1f — no heavy tail", maxDeg, avg)
	}
	// Determinism.
	g2 := NewBarabasiAlbert(2000, 4, 7)
	for i := range g.Edges {
		if g.Edges[i] != g2.Edges[i] {
			t.Fatal("BA generation must be deterministic")
		}
	}
}

func TestUniformRandomShape(t *testing.T) {
	g := NewUniformRandom(1000, 10, 3)
	avg := float64(g.NumEdges()) / float64(g.N)
	if avg < 8 || avg > 12 {
		t.Fatalf("avg degree %.1f, want ≈10", avg)
	}
}

func TestGitHubLikeScale(t *testing.T) {
	g := GitHubLike(1)
	if g.N != 37700 {
		t.Fatalf("N=%d, want 37700", g.N)
	}
	undirected := g.NumEdges() / 2
	if undirected < 250000 || undirected > 330000 {
		t.Fatalf("edges=%d, want ≈289k", undirected)
	}
}

func TestWorkspaceLayoutDisjoint(t *testing.T) {
	g := smallGraph()
	w := NewWorkspace(g, 2, 1<<30)
	regs := []memsys.Region{w.offsets, w.edges, w.weights, w.prop, w.prop2}
	regs = append(regs, w.visited...)
	regs = append(regs, w.work...)
	for i := range regs {
		for j := i + 1; j < len(regs); j++ {
			a, b := regs[i], regs[j]
			if a.Base < b.Base+memsys.Addr(b.Size) && b.Base < a.Base+memsys.Addr(a.Size) {
				t.Fatalf("regions %s and %s overlap", a.Name, b.Name)
			}
		}
	}
	if w.Footprint() == 0 {
		t.Fatal("footprint")
	}
}

func TestBFSLevels(t *testing.T) {
	g := smallGraph()
	w := NewWorkspace(g, 1, 1<<30)
	gen, res := BFS(w, 0) // thread 0 root = 0
	drainAll(t, gen, 1<<20)
	want := []int32{0, 1, 1, 2, 3, 3, -1, -1}
	for v, l := range res.Level {
		if l != want[v] {
			t.Fatalf("level[%d] = %d, want %d (all: %v)", v, l, want[v], res.Level)
		}
	}
}

func TestDFSVisitsComponent(t *testing.T) {
	g := smallGraph()
	w := NewWorkspace(g, 1, 1<<30)
	gen, res := DFS(w, 0)
	drainAll(t, gen, 1<<20)
	if res.VisitedCount != 6 {
		t.Fatalf("DFS from 0 visited %d, want 6 (component size)", res.VisitedCount)
	}
	if res.Preorder[0] != 0 {
		t.Fatal("preorder must start at the root")
	}
	seen := map[uint32]bool{}
	for _, v := range res.Preorder {
		if seen[v] {
			t.Fatalf("vertex %d visited twice", v)
		}
		seen[v] = true
	}
}

func TestConnectedComponentsMatchesRef(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := NewBarabasiAlbert(300, 3, seed)
		w := NewWorkspace(g, 4, 1<<30)
		gen, res := ConnectedComponents(w, 100)
		drainAll(t, gen, 1<<24)
		ref := ConnectedComponentsRef(g)
		// Same partition: labels equal iff ref labels equal.
		for u := 0; u < g.N; u++ {
			for _, v := range g.Neighbors(uint32(u)) {
				if (ref[u] == ref[v]) != (res.Labels[u] == res.Labels[v]) {
					t.Fatalf("seed %d: CC disagree at edge %d-%d", seed, u, v)
				}
			}
		}
	}
}

func TestTriangleCountingMatchesRef(t *testing.T) {
	g := smallGraph()
	w := NewWorkspace(g, 2, 1<<30)
	gen, res := TriangleCounting(w)
	drainAll(t, gen, 1<<20)
	if res.Count() != 2 {
		t.Fatalf("TC = %d, want 2", res.Count())
	}
	ba := NewBarabasiAlbert(200, 4, 9)
	wba := NewWorkspace(ba, 4, 1<<30)
	gen2, res2 := TriangleCounting(wba)
	drainAll(t, gen2, 1<<26)
	if ref := TriangleCountRef(ba); res2.Count() != ref {
		t.Fatalf("TC on BA graph = %d, ref = %d", res2.Count(), ref)
	}
}

func TestShortestPathCorrect(t *testing.T) {
	g := smallGraph()
	w := NewWorkspace(g, 2, 1<<30)
	gen, res := ShortestPath(w, 0, 50)
	drainAll(t, gen, 1<<22)
	const inf = ^uint32(0)
	if res.Dist[0] != 0 {
		t.Fatal("dist to root must be 0")
	}
	if res.Dist[6] != inf || res.Dist[7] != inf {
		t.Fatal("disconnected vertices must stay at infinity")
	}
	// Triangle inequality along every edge with our weight function.
	for u := uint32(0); u < uint32(g.N); u++ {
		if res.Dist[u] == inf {
			continue
		}
		for i, v := range g.Neighbors(u) {
			ei := g.Offsets[u] + uint32(i)
			if res.Dist[v] != inf && res.Dist[v] > res.Dist[u]+weightOf(ei) {
				t.Fatalf("relaxable edge %d->%d remains: %d > %d+%d",
					u, v, res.Dist[v], res.Dist[u], weightOf(ei))
			}
		}
	}
}

func TestGraphColoringProper(t *testing.T) {
	for _, threads := range []int{1, 4} {
		g := NewBarabasiAlbert(400, 3, 5)
		w := NewWorkspace(g, threads, 1<<30)
		gen, res := GraphColoring(w)
		drainAll(t, gen, 1<<24)
		conflicts := 0
		for u := uint32(0); u < uint32(g.N); u++ {
			for _, v := range g.Neighbors(u) {
				if v > u && res.Colors[u] == res.Colors[v] {
					conflicts++
				}
			}
		}
		// Single-threaded greedy must be perfectly proper; the parallel
		// version resolves almost all conflicts in its fix-up sweep.
		if threads == 1 && conflicts != 0 {
			t.Fatalf("sequential coloring has %d conflicts", conflicts)
		}
		if conflicts > g.N/50 {
			t.Fatalf("parallel coloring left %d conflicts", conflicts)
		}
	}
}

func TestDegreeCentrality(t *testing.T) {
	g := smallGraph()
	w := NewWorkspace(g, 2, 1<<30)
	gen, res := DegreeCentrality(w)
	drainAll(t, gen, 1<<20)
	for v := uint32(0); v < uint32(g.N); v++ {
		want := uint32(2 * g.Degree(v)) // in + out degree, symmetric graph
		if res.Centrality[v] != want {
			t.Fatalf("centrality[%d] = %d, want %d", v, res.Centrality[v], want)
		}
	}
}

func TestPageRankMassAndHubs(t *testing.T) {
	g := NewBarabasiAlbert(500, 4, 11)
	w := NewWorkspace(g, 4, 1<<30)
	gen, res := PageRank(w, 10)
	drainAll(t, gen, 1<<26)
	var sum uint64
	for _, r := range res.Ranks {
		sum += uint64(r)
	}
	if sum == 0 {
		t.Fatal("all ranks zero")
	}
	// The highest-degree vertex should out-rank the median vertex.
	maxDegV, maxDeg := uint32(0), 0
	for v := uint32(0); v < uint32(g.N); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDegV, maxDeg = v, d
		}
	}
	median := res.Ranks[250]
	if res.Ranks[maxDegV] <= median {
		t.Fatalf("hub rank %d should exceed median rank %d", res.Ranks[maxDegV], median)
	}
}

func TestAccessStreamsStayInRegions(t *testing.T) {
	g := NewBarabasiAlbert(300, 3, 2)
	w := NewWorkspace(g, 4, 1<<30)
	lo := memsys.Addr(1 << 30)
	hi := lo + memsys.Addr(w.Footprint()) + 100*memsys.PageSize
	check := func(name string, gen trace.Generator) {
		accs := drainAll(t, gen, 1<<24)
		for _, a := range accs {
			if a.Addr < lo || a.Addr >= hi {
				t.Fatalf("%s: access %#x outside workspace", name, uint64(a.Addr))
			}
			if a.Thread >= 4 {
				t.Fatalf("%s: bad thread %d", name, a.Thread)
			}
		}
		if len(accs) == 0 {
			t.Fatalf("%s: empty stream", name)
		}
	}
	gb, _ := BFS(w, 1)
	check("bfs", gb)
	gd, _ := DFS(w, 1)
	check("dfs", gd)
	gt2, _ := TriangleCounting(w)
	check("tc", gt2)
	gdc, _ := DegreeCentrality(w)
	check("dc", gdc)
}

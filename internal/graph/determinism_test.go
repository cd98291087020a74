package graph

import (
	"testing"

	"cosmos/internal/trace"
)

// TestAllAlgorithmsDeterministic replays every algorithm twice and demands
// byte-identical access streams — the property every experiment in the
// repository rests on.
func TestAllAlgorithmsDeterministic(t *testing.T) {
	g := NewBarabasiAlbert(2000, 4, 3)
	builders := map[string]func(w *Workspace) trace.Generator{
		"BFS": func(w *Workspace) trace.Generator { gen, _ := BFS(w, 5); return gen },
		"DFS": func(w *Workspace) trace.Generator { gen, _ := DFS(w, 5); return gen },
		"PR":  func(w *Workspace) trace.Generator { gen, _ := PageRank(w, 3); return gen },
		"CC":  func(w *Workspace) trace.Generator { gen, _ := ConnectedComponents(w, 10); return gen },
		"SP":  func(w *Workspace) trace.Generator { gen, _ := ShortestPath(w, 0, 10); return gen },
		"GC":  func(w *Workspace) trace.Generator { gen, _ := GraphColoring(w); return gen },
		"TC":  func(w *Workspace) trace.Generator { gen, _ := TriangleCounting(w); return gen },
		"DC":  func(w *Workspace) trace.Generator { gen, _ := DegreeCentrality(w); return gen },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			w1 := NewWorkspace(g, 2, 1<<30)
			w2 := NewWorkspace(g, 2, 1<<30)
			a := drainAll(t, trace.Limit(build(w1), 30000), 30001)
			b := drainAll(t, trace.Limit(build(w2), 30000), 30001)
			if len(a) != len(b) {
				t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("streams diverge at %d: %v vs %v", i, a[i], b[i])
				}
			}
		})
	}
}

func TestScatterChangesAddressesNotResults(t *testing.T) {
	g := NewBarabasiAlbert(1000, 4, 9)
	ws := NewWorkspace(g, 1, 1<<30)
	wp := NewPackedWorkspace(g, 1, 1<<30)

	genS, resS := TriangleCounting(ws)
	genP, resP := TriangleCounting(wp)
	drainAll(t, genS, 1<<26)
	drainAll(t, genP, 1<<26)
	if resS.Count() != resP.Count() {
		t.Fatalf("layout changed the computed result: %d vs %d", resS.Count(), resP.Count())
	}
}

func TestScatterIsBijectiveOverRing(t *testing.T) {
	g := NewBarabasiAlbert(500, 3, 1)
	w := NewWorkspace(g, 1, 1<<30)
	seen := map[uint64]uint32{}
	for v := uint32(0); v < uint32(g.N); v++ {
		idx := w.vIdx(v)
		if prev, dup := seen[idx]; dup {
			t.Fatalf("vIdx collision: vertices %d and %d both map to %d", prev, v, idx)
		}
		if idx > w.vMask {
			t.Fatalf("vIdx(%d) = %d beyond ring %d", v, idx, w.vMask)
		}
		seen[idx] = v
	}
}

func TestPackedWorkspaceIdentityMapping(t *testing.T) {
	g := NewBarabasiAlbert(100, 3, 1)
	w := NewPackedWorkspace(g, 1, 1<<30)
	for v := uint32(0); v < 100; v++ {
		if w.vIdx(v) != uint64(v) {
			t.Fatal("packed layout must use identity vertex mapping")
		}
	}
	if w.edgeIdx(3, 2) != uint64(g.Offsets[3])+2 {
		t.Fatal("packed layout must use CSR edge offsets")
	}
}

func TestEdgeChunksContiguous(t *testing.T) {
	g := NewBarabasiAlbert(300, 4, 2)
	w := NewWorkspace(g, 1, 1<<30)
	// Within one vertex's list, consecutive edges are consecutive
	// elements (one heap allocation), even under scattering.
	for v := uint32(0); v < 300; v += 17 {
		deg := g.Degree(v)
		for i := 1; i < deg; i++ {
			if w.edgeIdx(v, i) != w.edgeIdx(v, i-1)+1 {
				t.Fatalf("vertex %d: edge chunk not contiguous at slot %d", v, i)
			}
		}
	}
}

func TestWeightOfRange(t *testing.T) {
	for i := uint32(0); i < 1000; i++ {
		w := weightOf(i)
		if w < 1 || w > 16 {
			t.Fatalf("weightOf(%d) = %d outside [1,16]", i, w)
		}
	}
}

package workloads

import (
	"fmt"
	"strings"

	"cosmos/internal/graph"
	"cosmos/internal/trace"
)

// GraphNames lists the eight GraphBIG algorithms in the paper's order.
func GraphNames() []string {
	return []string{"DFS", "BFS", "GC", "PR", "TC", "CC", "SP", "DC"}
}

// SpecNames lists the SPEC-like irregular kernels (§5).
func SpecNames() []string { return []string{"mcf", "canneal", "omnetpp"} }

// MLNames lists the regular ML workloads of Fig 17.
func MLNames() []string {
	return []string{"AlexNet", "ResNet", "VGG", "BERT", "Transformer", "DLRM"}
}

// AllNames lists every workload the harness can run.
func AllNames() []string {
	out := append([]string{}, GraphNames()...)
	out = append(out, SpecNames()...)
	out = append(out, MLNames()...)
	return append(out, "MLP")
}

// Options configures workload construction.
type Options struct {
	Threads int
	Seed    uint64
	// GraphNodes and GraphDegree size the synthetic scale-free graph used
	// by graph workloads. Zero values take the repro defaults.
	GraphNodes  int
	GraphDegree int
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.GraphNodes <= 0 {
		// Default to the paper-regime graph: its counter working set far
		// exceeds every CTR cache (see DESIGN.md). Pass an explicit
		// smaller value for quick runs.
		o.GraphNodes = 2_000_000
	}
	if o.GraphDegree <= 0 {
		o.GraphDegree = 8
	}
	return o
}

type graphKey struct {
	nodes, degree int
	seed          uint64
}

// graphs memoises generated graphs: every experiment sweep reuses the same
// graph, and the 2M-node default holds about 136 MB of CSR arrays, so each
// (nodes, degree, seed) is built once per process and shared.
var graphs memo[graphKey, *graph.Graph]

// Graph returns the Barabási–Albert graph for (nodes, degree, seed). The
// first caller builds it; concurrent callers for the same key wait for that
// build and share its result.
func Graph(nodes, degree int, seed uint64) *graph.Graph {
	return graphs.get(graphKey{nodes, degree, seed}, func() *graph.Graph {
		return graph.NewBarabasiAlbert(nodes, degree, seed)
	})
}

// BuildGraph constructs one of the eight graph workloads over a cached
// scale-free graph.
func BuildGraph(name string, o Options) (trace.Generator, error) {
	o = o.withDefaults()
	g := Graph(o.GraphNodes, o.GraphDegree, o.Seed)
	w := graph.NewWorkspace(g, o.Threads, 1<<30)
	switch name {
	case "DFS":
		gen, _ := graph.DFS(w, o.Seed)
		return gen, nil
	case "BFS":
		gen, _ := graph.BFS(w, o.Seed)
		return gen, nil
	case "GC":
		gen, _ := graph.GraphColoring(w)
		return gen, nil
	case "PR":
		gen, _ := graph.PageRank(w, 20)
		return gen, nil
	case "TC":
		gen, _ := graph.TriangleCounting(w)
		return gen, nil
	case "CC":
		gen, _ := graph.ConnectedComponents(w, 50)
		return gen, nil
	case "SP":
		gen, _ := graph.ShortestPath(w, uint32(o.Seed%uint64(g.N)), 50)
		return gen, nil
	case "DC":
		gen, _ := graph.DegreeCentrality(w)
		return gen, nil
	}
	return nil, fmt.Errorf("workloads: unknown graph workload %q", name)
}

// Build constructs any registered workload by name. Names of the form
// "file:<path>" replay a trace previously captured with
// `cosmos-trace -export` (or trace.WriteFile).
func Build(name string, o Options) (trace.Generator, error) {
	o = o.withDefaults()
	if name == "" {
		return nil, fmt.Errorf("workloads: empty workload name (valid: %s, or file:<path>)",
			strings.Join(AllNames(), ", "))
	}
	if strings.HasPrefix(name, "file:") {
		g, err := trace.OpenFile(strings.TrimPrefix(name, "file:"))
		if err != nil {
			return nil, err
		}
		return g, nil
	}
	switch name {
	case "DFS", "BFS", "GC", "PR", "TC", "CC", "SP", "DC":
		return BuildGraph(name, o)
	case "mcf":
		return MCF(2_000_000, 8_000_000, o.Threads, o.Seed), nil
	case "canneal":
		return Canneal(4_000_000, o.Threads, o.Seed), nil
	case "omnetpp":
		return Omnetpp(4_000_000, o.Threads, o.Seed), nil
	case "MLP":
		return MLP(o.Threads, o.Seed), nil
	case "DLRM":
		return DLRM(8, 500_000, o.Threads, o.Seed), nil
	default:
		if m, ok := ModelByName(name); ok {
			return Inference(m, o.Threads, o.Seed), nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (valid: %s, or file:<path>)",
		name, strings.Join(AllNames(), ", "))
}

// IsIrregular reports whether the workload belongs to the irregular class
// the paper targets (graph + SPEC) as opposed to the regular ML class.
func IsIrregular(name string) bool {
	for _, n := range append(GraphNames(), SpecNames()...) {
		if n == name {
			return true
		}
	}
	return false
}

// BuildMix runs one single-threaded instance of each named workload on its
// own core and interleaves their streams — the heterogeneous multi-program
// evaluation style of shared-MC studies. Thread i carries names[i].
func BuildMix(names []string, o Options) (trace.Generator, error) {
	o = o.withDefaults()
	gens := make([]trace.Generator, 0, len(names))
	for i, name := range names {
		sub := o
		sub.Threads = 1
		sub.Seed = o.Seed + uint64(i)*7919
		g, err := Build(name, sub)
		if err != nil {
			for _, prev := range gens {
				trace.CloseIfCloser(prev)
			}
			return nil, err
		}
		gens = append(gens, g)
	}
	return trace.NewInterleave("mix("+strings.Join(names, "+")+")", gens, 64), nil
}

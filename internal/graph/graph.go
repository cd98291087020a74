// Package graph implements the paper's graph workloads from scratch: a CSR
// graph representation, scale-free (Barabási–Albert) and uniform random
// generators standing in for the GitHub developer social network dataset,
// and the eight GraphBIG algorithms — DFS, BFS, Graph Coloring (GC),
// PageRank (PR), Triangle Counting (TC), Connected Components (CC),
// Shortest Path (SP) and Degree Centrality (DC) — each instrumented to emit
// every logical load/store against a realistic virtual address layout, and
// each partitioned across worker threads the way the paper runs them
// (4 threads).
package graph

import (
	"fmt"
	"slices"

	"cosmos/internal/rl"
)

// Graph is an undirected graph in compressed sparse row form. Edges appear
// in both directions.
type Graph struct {
	N       int
	Offsets []uint32 // length N+1
	Edges   []uint32 // length 2×(undirected edge count)
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v uint32) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the adjacency slice of vertex v.
func (g *Graph) Neighbors(v uint32) []uint32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// NumEdges returns the number of directed edge slots (2× undirected edges).
func (g *Graph) NumEdges() int { return len(g.Edges) }

// FromEdgeList builds a symmetric CSR graph from undirected edge pairs.
// Self-loops are dropped; parallel edges are kept (they occur in social
// graphs and only add stream weight).
func FromEdgeList(n int, edges [][2]uint32) *Graph {
	pairs := make([]uint32, 0, 2*len(edges))
	for _, e := range edges {
		pairs = append(pairs, e[0], e[1])
	}
	return fromPairs(n, pairs)
}

// fromPairs builds the CSR graph from a flat edge list: pairs[2k] and
// pairs[2k+1] are the endpoints of undirected edge k.
func fromPairs(n int, pairs []uint32) *Graph {
	// offsets[u+1] counts u's degree, then a prefix sum turns the counts
	// into row starts.
	offsets := make([]uint32, n+1)
	for i := 0; i+1 < len(pairs); i += 2 {
		if u, v := pairs[i], pairs[i+1]; u != v {
			offsets[u+1]++
			offsets[v+1]++
		}
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	adj := make([]uint32, offsets[n])
	next := slices.Clone(offsets[:n]) // per-row fill cursor
	for i := 0; i+1 < len(pairs); i += 2 {
		if u, v := pairs[i], pairs[i+1]; u != v {
			adj[next[u]] = v
			next[u]++
			adj[next[v]] = u
			next[v]++
		}
	}
	// Sort each adjacency list so triangle counting can merge-intersect,
	// as GraphBIG does.
	for u := 0; u < n; u++ {
		slices.Sort(adj[offsets[u]:offsets[u+1]])
	}
	return &Graph{N: n, Offsets: offsets, Edges: adj}
}

// NewBarabasiAlbert generates a scale-free graph by preferential attachment:
// each new vertex attaches m edges to existing vertices chosen proportional
// to degree. This reproduces the power-law degree distribution of the
// GitHub developer social network the paper evaluates on.
func NewBarabasiAlbert(n, m int, seed uint64) *Graph {
	if n < 2 || m < 1 {
		panic(fmt.Sprintf("graph: invalid BA parameters n=%d m=%d", n, m))
	}
	if m >= n {
		m = n - 1
	}
	rng := rl.NewRand(seed)
	// Repeated-endpoint list: sampling uniformly from it is sampling
	// proportional to degree. endpoints[2k], endpoints[2k+1] is edge k, so
	// the list doubles as the edge list the CSR is built from. It holds the
	// clique's m(m+1)/2 edges plus m per later vertex.
	endpoints := make([]uint32, 0, m*(m+1)+2*(n-m-1)*m)
	// Seed clique over the first m+1 vertices.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			endpoints = append(endpoints, uint32(u), uint32(v))
		}
	}
	order := make([]uint32, 0, m) // u's distinct targets, in acceptance order
	idx := make([]int, m)
	drawn := make([]uint32, m)
	for u := m + 1; u < n; u++ {
		order = order[:0]
		for len(order) < m {
			// Each draw accepts at most one target, so the k still missing
			// take at least k more draws, and endpoints is fixed until u is
			// done: draw all k indices first, read them (the reads overlap
			// instead of serializing), then accept them in draw order. This
			// consumes the same rng sequence, and accepts the same targets,
			// as one draw at a time. Every endpoint is an earlier vertex, so
			// none is u itself.
			k := m - len(order)
			for i := range idx[:k] {
				idx[i] = rng.Intn(len(endpoints))
			}
			for i, j := range idx[:k] {
				drawn[i] = endpoints[j]
			}
			for _, t := range drawn[:k] {
				if !slices.Contains(order, t) {
					order = append(order, t)
				}
			}
		}
		for _, v := range order {
			endpoints = append(endpoints, uint32(u), v)
		}
	}
	return fromPairs(n, endpoints)
}

// NewUniformRandom generates an Erdős–Rényi-style graph with the given
// average degree (uniform endpoints).
func NewUniformRandom(n, avgDegree int, seed uint64) *Graph {
	if n < 2 || avgDegree < 1 {
		panic("graph: invalid uniform parameters")
	}
	rng := rl.NewRand(seed)
	m := n * avgDegree / 2
	edges := make([][2]uint32, 0, m)
	for i := 0; i < m; i++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v {
			v = (v + 1) % uint32(n)
		}
		edges = append(edges, [2]uint32{u, v})
	}
	return FromEdgeList(n, edges)
}

// GitHubLike returns a graph with the scale of the GitHub developer social
// network dataset (Rozemberczki et al.: 37,700 nodes, 289,003 edges): a BA
// graph with matching node count and average degree.
func GitHubLike(seed uint64) *Graph {
	return NewBarabasiAlbert(37700, 8, seed)
}

// ConnectedComponentsRef computes component labels with a sequential
// union-find — the reference answer the instrumented CC algorithm is
// checked against.
func ConnectedComponentsRef(g *Graph) []uint32 {
	parent := make([]uint32, g.N)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := uint32(0); u < uint32(g.N); u++ {
		for _, v := range g.Neighbors(u) {
			ru, rv := find(u), find(v)
			if ru != rv {
				if ru < rv {
					parent[rv] = ru
				} else {
					parent[ru] = rv
				}
			}
		}
	}
	labels := make([]uint32, g.N)
	for i := range labels {
		labels[i] = find(uint32(i))
	}
	return labels
}

// TriangleCountRef counts triangles with the standard sorted-intersection
// method — the reference for the instrumented TC algorithm.
func TriangleCountRef(g *Graph) uint64 {
	var count uint64
	for u := uint32(0); u < uint32(g.N); u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			count += intersectGreater(g.Neighbors(u), g.Neighbors(v), v)
		}
	}
	return count
}

// intersectGreater counts common neighbours w of u and v with w > min, so
// each triangle u<v<w is counted exactly once. Adjacency lists are sorted,
// enabling the two-pointer merge GraphBIG uses.
func intersectGreater(a, b []uint32, min uint32) uint64 {
	var c uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			i++
		case y < x:
			j++
		default:
			if x > min {
				c++
			}
			i++
			j++
		}
	}
	return c
}

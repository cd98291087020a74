package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sort"
	"testing"

	"cosmos/internal/rl"
)

// The reference models below are the original graph builder: a map and an
// order slice per new vertex, one random draw at a time, a separate
// [][2]uint32 edge list, and a reflection sort per adjacency list. The
// golden hashes were captured from it; the fuzz targets hold the optimized
// builder to the same arrays on arbitrary small inputs.

func refBarabasiAlbert(n, m int, seed uint64) *Graph {
	if m >= n {
		m = n - 1
	}
	rng := rl.NewRand(seed)
	edges := make([][2]uint32, 0, n*m)
	endpoints := make([]uint32, 0, 2*n*m)
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			edges = append(edges, [2]uint32{uint32(u), uint32(v)})
			endpoints = append(endpoints, uint32(u), uint32(v))
		}
	}
	for u := m + 1; u < n; u++ {
		chosen := map[uint32]bool{}
		order := make([]uint32, 0, m)
		for len(chosen) < m {
			t := endpoints[rng.Intn(len(endpoints))]
			if t != uint32(u) && !chosen[t] {
				chosen[t] = true
				order = append(order, t)
			}
		}
		for _, v := range order {
			edges = append(edges, [2]uint32{uint32(u), v})
			endpoints = append(endpoints, uint32(u), v)
		}
	}
	return refFromEdgeList(n, edges)
}

func refFromEdgeList(n int, edges [][2]uint32) *Graph {
	deg := make([]uint32, n+1)
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	offsets := make([]uint32, n+1)
	for i := 1; i <= n; i++ {
		offsets[i] = offsets[i-1] + deg[i]
	}
	adj := make([]uint32, offsets[n])
	fill := make([]uint32, n)
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		u, v := e[0], e[1]
		adj[offsets[u]+fill[u]] = v
		fill[u]++
		adj[offsets[v]+fill[v]] = u
		fill[v]++
	}
	for u := 0; u < n; u++ {
		s := adj[offsets[u]:offsets[u+1]]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return &Graph{N: n, Offsets: offsets, Edges: adj}
}

func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("N = %d, want %d", got.N, want.N)
	}
	if !slices.Equal(got.Offsets, want.Offsets) {
		t.Fatalf("Offsets differ from the reference:\n got %v\nwant %v", got.Offsets, want.Offsets)
	}
	if !slices.Equal(got.Edges, want.Edges) {
		t.Fatalf("Edges differ from the reference:\n got %v\nwant %v", got.Edges, want.Edges)
	}
}

func hashU32(s []uint32) string {
	b := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestBarabasiAlbertGolden pins the SHA-256 of the little-endian Offsets and
// Edges arrays. Every graph workload, and so every graph golden result,
// depends on these exact arrays. The (50, 49, 3) case exercises the m ≥ n
// clamp.
func TestBarabasiAlbertGolden(t *testing.T) {
	cases := []struct {
		n, m           int
		seed           uint64
		offsets, edges string
	}{
		{2000, 4, 7,
			"35f2c85e2335c465da91f245590fa5cd6f54f06c13fbee3f27da12cb4d6b1329",
			"a27f39bb0dd8c91d381de00b4b17a1f90528e23f4f82fc196596f21a1ab1dfd5"},
		{37700, 8, 42,
			"457592589b8ad386ab4fe2f34a65f0c4111b112f968e9d4afa5d5f2750995492",
			"dc1bdb622a8c48cf35db8836213ee6c94d6db05d6b6d8ef44f941bf0426b78c4"},
		{100, 3, 1,
			"50deb6d470cb8ba7fcf6223ed056b4381dab02e8b894734ac9e56be6fb5ac4f7",
			"fc9e92260e6dfc796ecb09eb7e6e966329867e3bede66036bedf0002506df6ac"},
		{10, 1, 5,
			"48daba08107d245c0a650e8555ba35b948b6d84bdcb44252d2ecb9d2ab5c1362",
			"8fd254665b17baaabc8ccdd7f9b1d2711025b3acbf3a3654df2faebf45c4762d"},
		{50, 49, 3,
			"d028998a162c3a6c6e1830cefd51ce053df6567009159ac368135a04ceaf655c",
			"b7d7e7ed08942c7b81e38733a83c77808934bc3e4f1fb1c82eefbd24d73d2abb"},
	}
	for _, c := range cases {
		g := NewBarabasiAlbert(c.n, c.m, c.seed)
		if got := hashU32(g.Offsets); got != c.offsets {
			t.Errorf("BA(%d,%d,%d) Offsets sha256 %s, want %s", c.n, c.m, c.seed, got, c.offsets)
		}
		if got := hashU32(g.Edges); got != c.edges {
			t.Errorf("BA(%d,%d,%d) Edges sha256 %s, want %s", c.n, c.m, c.seed, got, c.edges)
		}
	}
}

// FuzzBarabasiAlbert checks the builder against the reference model on
// small (n, m, seed); m may exceed n to reach the clamp.
func FuzzBarabasiAlbert(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint64(0))
	f.Add(uint16(98), uint8(2), uint64(1))
	f.Add(uint16(48), uint8(60), uint64(3))
	f.Add(uint16(300), uint8(7), uint64(42))
	f.Add(uint16(8), uint8(1), uint64(5))
	f.Fuzz(func(t *testing.T, nRaw uint16, mRaw uint8, seed uint64) {
		n := 2 + int(nRaw)%500
		m := 1 + int(mRaw)%64
		sameGraph(t, NewBarabasiAlbert(n, m, seed), refBarabasiAlbert(n, m, seed))
	})
}

// FuzzFromEdgeList checks the CSR builder against the reference model on
// arbitrary edge lists over up to 32 vertices: each byte pair is one edge,
// so self-loops and parallel edges are common.
func FuzzFromEdgeList(f *testing.F) {
	f.Add(uint8(7), []byte{0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 5, 5, 3, 6, 7})
	f.Add(uint8(2), []byte{0, 0, 0, 1, 1, 0, 0, 1, 2, 2})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(31), []byte{9, 4, 4, 9, 9, 9, 31, 0, 0, 31, 17, 3, 3})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := 1 + int(nRaw)%32
		edges := make([][2]uint32, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, [2]uint32{uint32(data[i]) % uint32(n), uint32(data[i+1]) % uint32(n)})
		}
		sameGraph(t, FromEdgeList(n, edges), refFromEdgeList(n, edges))
	})
}

// TestBarabasiAlbertAllocs guards against per-vertex allocation: the
// builder allocates a fixed handful of arrays whatever n is.
func TestBarabasiAlbertAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() { NewBarabasiAlbert(20000, 8, 1) })
	if allocs > 16 {
		t.Fatalf("NewBarabasiAlbert(20000, 8, 1) made %.0f allocations, want <= 16", allocs)
	}
}

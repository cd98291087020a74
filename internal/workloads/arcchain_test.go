package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"sync"
	"testing"

	"cosmos/internal/rl"
	"cosmos/internal/trace"
)

// naiveSattolo is the arc-chain shuffle as MCF ran it inline before the
// chain was memoised: the reference the shared chain must equal.
func naiveSattolo(arcs int, seed uint64) []uint32 {
	next := make([]uint32, arcs)
	for i := range next {
		next[i] = uint32(i)
	}
	prng := rl.NewRand(seed ^ 0x5ca770)
	for i := arcs - 1; i > 0; i-- {
		j := prng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return next
}

// chainDigest is the SHA-256 of the chain as little-endian uint32s.
func chainDigest(next []uint32) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range next {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// streamDigest is the SHA-256 of the first n accesses of g, each encoded
// as Addr (8 bytes LE), Type, Thread, Region (2 bytes LE) and Dep (0/1).
func streamDigest(t *testing.T, g trace.Generator, n int) string {
	t.Helper()
	accs := take(t, g, n)
	if len(accs) != n {
		t.Fatalf("stream ended after %d of %d accesses", len(accs), n)
	}
	h := sha256.New()
	var b [13]byte
	for _, a := range accs {
		binary.LittleEndian.PutUint64(b[0:], uint64(a.Addr))
		b[8] = byte(a.Type)
		b[9] = a.Thread
		binary.LittleEndian.PutUint16(b[10:], a.Region)
		b[12] = 0
		if a.Dep {
			b[12] = 1
		}
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestArcChainMatchesSattolo compares the memoised chain with the inline
// shuffle it replaced, across sizes and seeds.
func TestArcChainMatchesSattolo(t *testing.T) {
	for _, arcs := range []int{2, 3, 8191, 8193, 100_000} {
		for _, seed := range []uint64{1, 42, 0x5ca770, 1 << 63} {
			got, want := arcChain(arcs, seed), naiveSattolo(arcs, seed)
			if len(got) != len(want) {
				t.Fatalf("arcs=%d seed=%d: len %d, want %d", arcs, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("arcs=%d seed=%d: next[%d] = %d, want %d", arcs, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// The digests below were recorded from the inline shuffle, before the
// chain was shared: the default mcf chain and the first 1M accesses of
// Build("mcf") at the default options (4 threads, seed 42).
const (
	mcfChainSHA256  = "9c98fa9d62052890abaf307b1eb97598bbe924cd0b392925a4e10eddad24d723"
	mcfStreamSHA256 = "79469d2c6d4173b76be7cd4739a12c9b81f6386cae0ebbf1c6a7bdc516b43f3d"
)

func TestArcChainGolden(t *testing.T) {
	if got := chainDigest(arcChain(8_000_000, 42)); got != mcfChainSHA256 {
		t.Errorf("mcf chain digest %s, want %s", got, mcfChainSHA256)
	}
	g, err := Build("mcf", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := streamDigest(t, g, 1_000_000); got != mcfStreamSHA256 {
		t.Errorf("mcf stream digest %s, want %s", got, mcfStreamSHA256)
	}
}

// TestArcChainSingleFlight starts eight cold callers on a fresh key at
// once: one builds the chain and all of them share its backing array.
func TestArcChainSingleFlight(t *testing.T) {
	const callers = 8
	got := make([]*uint32, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = &arcChain(50_000, 0x51f1)[0]
		}(i)
	}
	close(start)
	wg.Wait()
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("caller %d got chain %p, caller 0 got %p", i, p, got[0])
		}
	}
}

// TestArcChainReadOnly drains two MCF generators that share a chain and
// checks that neither wrote to it.
func TestArcChainReadOnly(t *testing.T) {
	const arcs, seed = 100_000, 0x0ead
	before := chainDigest(arcChain(arcs, seed))
	gens := []trace.Generator{MCF(20_000, arcs, 2, seed), MCF(20_000, arcs, 2, seed)}
	for i, g := range gens {
		if n := len(take(t, g, 200_000)); n != 200_000 {
			t.Fatalf("generator %d streamed %d accesses", i, n)
		}
	}
	if after := chainDigest(arcChain(arcs, seed)); after != before {
		t.Fatalf("shared chain changed while streaming: %s -> %s", before, after)
	}
}

// TestMCFBuildSharesChain guards the sharing: once the chain exists, a
// second Build("mcf") must not allocate another 32 MB copy of it.
func TestMCFBuildSharesChain(t *testing.T) {
	o := Options{}
	warm, err := Build("mcf", o)
	if err != nil {
		t.Fatal(err)
	}
	trace.CloseIfCloser(warm)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g, err := Build("mcf", o)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	trace.CloseIfCloser(g)
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("warm Build(\"mcf\") allocated %d bytes, want < 1 MiB", alloc)
	}
}

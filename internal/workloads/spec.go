// Package workloads implements the non-graph benchmarks the paper
// evaluates: SPEC-like irregular kernels (mcf, canneal, omnetpp) and the
// regular ML inference workloads of §6.3 (MLP, AlexNet, ResNet, VGG, BERT,
// Transformer, DLRM). Each emits its logical loads/stores against a
// synthetic address layout, 4-way threaded like the paper's runs.
package workloads

import (
	"cosmos/internal/memsys"
	"cosmos/internal/rl"
	"cosmos/internal/trace"
)

// Region signatures for the SPEC-like kernels.
const (
	sigNodes   uint16 = 32
	sigArcs    uint16 = 33
	sigElems   uint16 = 34
	sigNetlist uint16 = 35
	sigHeap    uint16 = 36
	sigMsgs    uint16 = 37
)

func interleaved(name string, threads int, chunk int, mk func(t int) func(emit func(memsys.Access))) trace.Generator {
	gens := make([]trace.Generator, threads)
	for t := 0; t < threads; t++ {
		prog := mk(t)
		th := uint8(t)
		gens[t] = trace.FromFunc(name, func(emit func(memsys.Access)) {
			prog(func(a memsys.Access) {
				a.Thread = th
				emit(a)
			})
		})
	}
	return trace.NewInterleave(name, gens, chunk)
}

type arcKey struct {
	arcs int
	seed uint64
}

// arcChains memoises mcf's arc chains: every design in a sweep walks the
// same 32 MB chain of the 8M-arc default, so each (arcs, seed) is shuffled
// once per process and shared. MCF generators only read it.
var arcChains memo[arcKey, []uint32]

// arcChain returns mcf's arc chain for (arcs, seed): a single-cycle random
// permutation (Sattolo), so the dependent walk covers the whole arc array
// instead of collapsing into a short rho-cycle the caches would trivially
// absorb.
func arcChain(arcs int, seed uint64) []uint32 {
	return arcChains.get(arcKey{arcs, seed}, func() []uint32 {
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
	})
}

// MCF emulates SPEC mcf's network-simplex core: a large arc array and node
// array traversed by dependent pointer chains with low locality. Each thread
// walks its own chain over the shared arrays, reading arc records (cost,
// head, tail) and updating node potentials.
func MCF(nodes, arcs int, threads int, seed uint64) trace.Generator {
	l := memsys.NewLayout(1 << 30)
	nodeReg := l.Alloc("nodes", uint64(nodes), 64) // fat node records
	arcReg := l.Alloc("arcs", uint64(arcs), 32)

	next := arcChain(arcs, seed)

	return interleaved("mcf", threads, 64, func(t int) func(emit func(memsys.Access)) {
		return func(emit func(memsys.Access)) {
			rng := rl.NewRand(seed + uint64(t)*977)
			// Network simplex prices several arc chains concurrently;
			// two interleaved cursors model that instruction-level
			// parallelism, so only alternating hops serialise.
			curs := [2]uint64{uint64(rng.Intn(arcs)), uint64(rng.Intn(arcs))}
			for step := 0; step < 1<<30; step++ {
				cur := curs[step&1]
				// read arc record (two words); the chain's next hop
				// depends on this load
				emit(memsys.Access{Addr: arcReg.At(cur), Type: memsys.Read, Region: sigArcs, Dep: step&1 == 0})
				emit(memsys.Access{Addr: arcReg.At(cur) + 16, Type: memsys.Read, Region: sigArcs})
				// read the head and tail node potentials
				head := uint64(rl.SplitMix64(cur*2+1) % uint64(nodes))
				tail := uint64(rl.SplitMix64(cur*2+2) % uint64(nodes))
				emit(memsys.Access{Addr: nodeReg.At(head), Type: memsys.Read, Region: sigNodes})
				emit(memsys.Access{Addr: nodeReg.At(tail), Type: memsys.Read, Region: sigNodes})
				// occasionally update a potential (pivot)
				if rng.Intn(8) == 0 {
					emit(memsys.Access{Addr: nodeReg.At(head), Type: memsys.Write, Region: sigNodes})
				}
				// follow the chain: next arc depends on this arc
				curs[step&1] = uint64(next[cur])
			}
		}
	})
}

// Canneal emulates PARSEC/SPEC canneal's simulated annealing: random pairs
// of netlist elements are read, their neighbour lists scanned, and the pair
// swapped if it lowers cost — uniformly random reads with scattered writes.
func Canneal(elements int, threads int, seed uint64) trace.Generator {
	l := memsys.NewLayout(1 << 30)
	elemReg := l.Alloc("elements", uint64(elements), 64)
	netReg := l.Alloc("netlist", uint64(elements)*4, 4)

	return interleaved("canneal", threads, 64, func(t int) func(emit func(memsys.Access)) {
		return func(emit func(memsys.Access)) {
			rng := rl.NewRand(seed + uint64(t)*131)
			for step := 0; step < 1<<30; step++ {
				a := uint64(rng.Intn(elements))
				b := uint64(rng.Intn(elements))
				emit(memsys.Access{Addr: elemReg.At(a), Type: memsys.Read, Region: sigElems})
				emit(memsys.Access{Addr: elemReg.At(b), Type: memsys.Read, Region: sigElems})
				// scan 4 netlist neighbours of each
				for k := uint64(0); k < 4; k++ {
					emit(memsys.Access{Addr: netReg.At(a*4 + k), Type: memsys.Read, Region: sigNetlist})
					emit(memsys.Access{Addr: netReg.At(b*4 + k), Type: memsys.Read, Region: sigNetlist})
				}
				if rng.Intn(3) == 0 { // accepted swap
					emit(memsys.Access{Addr: elemReg.At(a), Type: memsys.Write, Region: sigElems})
					emit(memsys.Access{Addr: elemReg.At(b), Type: memsys.Write, Region: sigElems})
				}
			}
		}
	})
}

// Omnetpp emulates SPEC omnetpp's discrete-event simulation: a binary-heap
// event queue (pointer-ish hops through a heap array) plus scattered message
// payload touches.
func Omnetpp(events int, threads int, seed uint64) trace.Generator {
	l := memsys.NewLayout(1 << 30)
	heapReg := l.Alloc("heap", uint64(events), 16)
	msgReg := l.Alloc("messages", uint64(events), 128)

	return interleaved("omnetpp", threads, 64, func(t int) func(emit func(memsys.Access)) {
		return func(emit func(memsys.Access)) {
			rng := rl.NewRand(seed + uint64(t)*613)
			size := uint64(events)
			for step := 0; step < 1<<30; step++ {
				// pop: root read + sift-down path (log n heap hops)
				emit(memsys.Access{Addr: heapReg.At(0), Type: memsys.Read, Region: sigHeap})
				i := uint64(0)
				for 2*i+1 < size {
					child := 2*i + 1 + uint64(rng.Intn(2))
					if child >= size {
						child = 2*i + 1
					}
					emit(memsys.Access{Addr: heapReg.At(child), Type: memsys.Read, Region: sigHeap, Dep: true})
					emit(memsys.Access{Addr: heapReg.At(i), Type: memsys.Write, Region: sigHeap})
					i = child
					if i > size/2 {
						break
					}
				}
				// handle the message: read payload, write updated state
				m := uint64(rng.Intn(events))
				emit(memsys.Access{Addr: msgReg.At(m), Type: memsys.Read, Region: sigMsgs})
				emit(memsys.Access{Addr: msgReg.At(m) + 64, Type: memsys.Write, Region: sigMsgs})
				// push: sift-up path
				j := size - 1 - uint64(rng.Intn(int(size/4)+1))
				for j > 0 {
					parent := (j - 1) / 2
					emit(memsys.Access{Addr: heapReg.At(parent), Type: memsys.Read, Region: sigHeap})
					j = parent
					if rng.Intn(2) == 0 {
						break
					}
				}
			}
		}
	})
}

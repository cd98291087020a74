package integrity

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Digest is a SHA-256 hash value.
type Digest = [32]byte

// HashTree is a real Merkle tree over counter-block digests. Interior nodes
// live in untrusted storage (they would sit in DRAM); only the root copy is
// trusted. Verify recomputes the leaf-to-root chain from untrusted nodes and
// compares against the trusted root, exactly the check that defeats replay
// attacks in AES-CTR+MT secure memory.
//
// The tree is sparse: absent nodes take precomputed all-zero-subtree
// defaults, so a 4M-leaf tree costs memory only for blocks actually written.
type HashTree struct {
	arity  int
	levels []uint64
	nodes  []map[uint64]Digest // untrusted node storage per level; level 0 = leaves
	root   Digest              // trusted on-chip root
	def    []Digest            // default digest per level (all-zero subtree)
}

// NewHashTree builds a tree over leafCount leaves with the given arity.
func NewHashTree(leafCount uint64, arity int) *HashTree {
	if leafCount == 0 || arity < 2 {
		panic(fmt.Sprintf("integrity: invalid hash tree leaves=%d arity=%d", leafCount, arity))
	}
	t := &HashTree{arity: arity}
	t.levels = append(t.levels, leafCount)
	n := leafCount
	for n > 1 {
		n = (n + uint64(arity) - 1) / uint64(arity)
		t.levels = append(t.levels, n)
	}
	t.nodes = make([]map[uint64]Digest, len(t.levels))
	for i := range t.nodes {
		t.nodes[i] = make(map[uint64]Digest)
	}
	t.def = make([]Digest, len(t.levels))
	t.def[0] = sha256.Sum256([]byte("cosmos-empty-leaf"))
	for lvl := 1; lvl < len(t.levels); lvl++ {
		t.def[lvl] = t.hashChildren(lvl, 0, func(uint64) Digest { return t.def[lvl-1] })
	}
	t.root = t.node(len(t.levels)-1, 0)
	return t
}

func (t *HashTree) node(lvl int, idx uint64) Digest {
	if d, ok := t.nodes[lvl][idx]; ok {
		return d
	}
	return t.def[lvl]
}

// hashChildren computes the parent digest at (lvl, idx) from a child-fetch
// function; the level and index are folded in to pin node positions.
func (t *HashTree) hashChildren(lvl int, idx uint64, child func(uint64) Digest) Digest {
	h := sha256.New()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(lvl))
	binary.LittleEndian.PutUint64(hdr[8:], idx)
	h.Write(hdr[:])
	first := idx * uint64(t.arity)
	for c := uint64(0); c < uint64(t.arity); c++ {
		ci := first + c
		if ci < t.levels[lvl-1] {
			d := child(ci)
			h.Write(d[:])
		}
	}
	var out Digest
	copy(out[:], h.Sum(nil))
	return out
}

// SetLeaf installs a new leaf digest (a counter block changed) and updates
// the ancestor chain plus the trusted root — the MT update a secure memory
// controller performs on every counter increment.
func (t *HashTree) SetLeaf(leaf uint64, d Digest) {
	if leaf >= t.levels[0] {
		panic(fmt.Sprintf("integrity: leaf %d out of range %d", leaf, t.levels[0]))
	}
	t.nodes[0][leaf] = d
	idx := leaf
	for lvl := 1; lvl < len(t.levels); lvl++ {
		idx /= uint64(t.arity)
		t.nodes[lvl][idx] = t.hashChildren(lvl, idx, func(ci uint64) Digest { return t.node(lvl-1, ci) })
	}
	t.root = t.node(len(t.levels)-1, 0)
}

// Verify checks that the claimed leaf digest is authentic: it must match the
// stored (untrusted) leaf, and the recomputed chain of parent hashes over
// untrusted nodes must land exactly on the trusted root. Any tampering with
// the leaf, an interior node, or a replay of stale values fails the check.
func (t *HashTree) Verify(leaf uint64, claimed Digest) bool {
	if leaf >= t.levels[0] {
		return false
	}
	if t.node(0, leaf) != claimed {
		return false
	}
	if len(t.levels) == 1 { // single leaf: the leaf is the root
		return claimed == t.root
	}
	idx := leaf
	for lvl := 1; lvl < len(t.levels); lvl++ {
		idx /= uint64(t.arity)
		want := t.hashChildren(lvl, idx, func(ci uint64) Digest { return t.node(lvl-1, ci) })
		if lvl == len(t.levels)-1 {
			return want == t.root
		}
		if t.node(lvl, idx) != want {
			return false
		}
	}
	return false // unreachable
}

// Root returns the trusted on-chip root digest.
func (t *HashTree) Root() Digest { return t.root }

// Depth returns the number of levels above the leaves.
func (t *HashTree) Depth() int { return len(t.levels) - 1 }

// CorruptNode overwrites an untrusted stored node, simulating a physical
// attacker flipping bits in DRAM (the enclave's Replay attack and the tamper
// tests).
func (t *HashTree) CorruptNode(lvl int, idx uint64, d Digest) {
	t.nodes[lvl][idx] = d
}

// LeafDigest hashes raw leaf content (a serialised counter block) into the
// tree's digest domain.
func LeafDigest(content []byte) Digest { return sha256.Sum256(content) }

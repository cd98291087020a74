// Package enclave is a functional (bit-accurate, not timing) implementation
// of AES-CTR secure memory as described in §2.1 of the paper: every 64-byte
// line is encrypted with a one-time pad AES_Enc(PA ‖ CTR), authenticated
// with a MAC = Hash(ciphertext ‖ PA ‖ CTR), and the counters are protected
// by a real Merkle tree whose root stays on-chip. Reads detect data
// tampering, MAC forgery, counter tampering and replay. The package also
// handles MorphCtr counter overflow by re-encrypting the live lines of the
// overflowing block.
//
// The timing simulator (internal/secmem, internal/sim) models the latencies
// of this machinery; this package executes it for real, and the two are
// cross-checked in tests.
package enclave

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"cosmos/internal/ctr"
	"cosmos/internal/integrity"
	"cosmos/internal/memsys"
)

// LineSize is the protected granularity (one cache line).
const LineSize = memsys.LineSize

// Line is one 64-byte plaintext or ciphertext block.
type Line = [LineSize]byte

// MAC is a truncated 64-bit authentication tag, matching the paper's
// "64 bits each" MAC configuration (Table 3).
type MAC = [8]byte

// Errors reported by Read when verification fails.
var (
	ErrMACMismatch    = errors.New("enclave: MAC verification failed (data or metadata tampered)")
	ErrTreeMismatch   = errors.New("enclave: Merkle tree verification failed (counter tampered or replayed)")
	ErrOutOfRange     = errors.New("enclave: address out of range")
	ErrNotLineAligned = errors.New("enclave: address not line aligned")
)

// Memory is an encrypted, integrity-protected memory. All stored state —
// ciphertext, MACs, counters and interior tree nodes — is conceptually in
// untrusted DRAM and can be tampered with through the Tamper* methods; only
// the AES key and the tree root are trusted.
type Memory struct {
	size   uint64
	block  cipher.Block
	lines  map[uint64]Line // ciphertext per line number
	macs   map[uint64]MAC
	ctrs   *ctr.Store
	tree   *integrity.HashTree
	layout *integrity.SecureLayout

	// Stats counts crypto operations for the examples.
	Stats Stats
}

// Stats counts functional secure-memory events.
type Stats struct {
	Reads         uint64
	Writes        uint64
	ReEncryptions uint64
	ReEncLines    uint64
	VerifyFails   uint64
}

// New creates a protected memory of size bytes (rounded up to a counter
// block) keyed by the 16-byte AES key, using the given counter scheme.
func New(size uint64, key []byte, scheme ctr.Scheme) (*Memory, error) {
	if size == 0 {
		return nil, errors.New("enclave: zero size")
	}
	blk, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("enclave: %w", err)
	}
	store := ctr.NewStore(scheme)
	layout := integrity.NewSecureLayout(size, scheme.LinesPerBlock)
	m := &Memory{
		size:   size,
		block:  blk,
		lines:  make(map[uint64]Line),
		macs:   make(map[uint64]MAC),
		ctrs:   store,
		tree:   integrity.NewHashTree(scheme.CtrBlocksFor(size), 8),
		layout: layout,
	}
	return m, nil
}

// Size returns the protected capacity in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Root returns the trusted Merkle root (e.g. for attestation display).
func (m *Memory) Root() integrity.Digest { return m.tree.Root() }

func (m *Memory) checkAddr(addr memsys.Addr) (uint64, error) {
	if uint64(addr)%LineSize != 0 {
		return 0, ErrNotLineAligned
	}
	if uint64(addr) >= m.size {
		return 0, ErrOutOfRange
	}
	return addr.Line(), nil
}

// pad generates the one-time pad AES_Enc(PA ‖ CTR_M ‖ CTR_m) for a 64-byte
// line: four AES blocks keyed by the line address, major, minor and block
// ordinal.
func (m *Memory) pad(line uint64, major uint64, minor uint32) Line {
	var out Line
	var in [16]byte
	for i := 0; i < LineSize/16; i++ {
		binary.LittleEndian.PutUint64(in[0:], line<<memsys.LineOffsetBits) // PA
		binary.LittleEndian.PutUint32(in[8:], minor)
		binary.LittleEndian.PutUint32(in[12:], uint32(i))
		// fold the major counter into the PA word's upper entropy
		binary.LittleEndian.PutUint64(in[0:], (line<<memsys.LineOffsetBits)^(major<<1)^(major>>7))
		m.block.Encrypt(out[i*16:(i+1)*16], in[:])
	}
	return out
}

func xorLine(a, b Line) Line {
	var out Line
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// mac computes Hash(ciphertext ‖ PA ‖ CTR) truncated to 64 bits.
func (m *Memory) mac(line uint64, ct Line, major uint64, minor uint32) MAC {
	h := sha256.New()
	h.Write(ct[:])
	var meta [20]byte
	binary.LittleEndian.PutUint64(meta[0:], line<<memsys.LineOffsetBits)
	binary.LittleEndian.PutUint64(meta[8:], major)
	binary.LittleEndian.PutUint32(meta[16:], minor)
	h.Write(meta[:])
	var out MAC
	copy(out[:], h.Sum(nil))
	return out
}

func (m *Memory) leafDigest(blockIdx uint64) integrity.Digest {
	return integrity.LeafDigest(m.ctrs.BlockDigestInput(blockIdx))
}

// Write encrypts and stores one line, incrementing its counter first (the
// anti-replay timestamping of §1) and updating the MAC and Merkle tree. A
// counter overflow transparently re-encrypts the live lines of the block
// under the new major counter.
func (m *Memory) Write(addr memsys.Addr, plain Line) error {
	line, err := m.checkAddr(addr)
	if err != nil {
		return err
	}
	m.Stats.Writes++

	blockIdx := m.ctrs.BlockOf(line)
	if m.ctrs.WillOverflow(line) {
		if err := m.reEncrypt(blockIdx, line); err != nil {
			return err
		}
	}
	m.ctrs.Increment(line)
	major, minor := m.ctrs.Value(line)
	ct := xorLine(plain, m.pad(line, major, minor))
	m.lines[line] = ct
	m.macs[line] = m.mac(line, ct, major, minor)
	m.tree.SetLeaf(blockIdx, m.leafDigest(blockIdx))
	return nil
}

// reEncrypt decrypts every live line of the block under the old counters
// and re-encrypts under the post-overflow values, exactly the background
// work the timing model charges as extra 64B DRAM requests.
func (m *Memory) reEncrypt(blockIdx, trigger uint64) error {
	live := m.ctrs.LiveLines(blockIdx)
	plains := make(map[uint64]Line, len(live))
	for _, l := range live {
		major, minor := m.ctrs.Value(l)
		ct, ok := m.lines[l]
		if !ok {
			continue
		}
		plains[l] = xorLine(ct, m.pad(l, major, minor))
	}
	// Advance the major counter by overflowing through the store.
	ov, _ := m.ctrs.Increment(trigger)
	if !ov {
		return errors.New("enclave: internal: expected overflow")
	}
	m.Stats.ReEncryptions++
	for l, p := range plains {
		if l == trigger {
			continue // rewritten by the caller with the new data
		}
		m.Stats.ReEncLines++
		major, minor := m.ctrs.Value(l)
		ct := xorLine(p, m.pad(l, major, minor))
		m.lines[l] = ct
		m.macs[l] = m.mac(l, ct, major, minor)
	}
	m.tree.SetLeaf(blockIdx, m.leafDigest(blockIdx))
	return nil
}

// Read fetches, verifies and decrypts one line. It returns ErrTreeMismatch
// if the counter block fails Merkle verification (tamper/replay) and
// ErrMACMismatch if the ciphertext fails authentication.
func (m *Memory) Read(addr memsys.Addr) (Line, error) {
	var zero Line
	line, err := m.checkAddr(addr)
	if err != nil {
		return zero, err
	}
	m.Stats.Reads++

	blockIdx := m.ctrs.BlockOf(line)
	if !m.ctrs.BlockExists(blockIdx) {
		// No write ever landed in this counter block: the whole block
		// reads as zero and there is nothing to verify yet.
		return zero, nil
	}
	if !m.tree.Verify(blockIdx, m.leafDigest(blockIdx)) {
		m.Stats.VerifyFails++
		return zero, ErrTreeMismatch
	}
	major, minor := m.ctrs.Value(line)
	ct, written := m.lines[line]
	if !written {
		// Never written: defined to read as zero.
		return zero, nil
	}
	if m.mac(line, ct, major, minor) != m.macs[line] {
		m.Stats.VerifyFails++
		return zero, ErrMACMismatch
	}
	return xorLine(ct, m.pad(line, major, minor)), nil
}

// --- attacker surface (tampering for tests and demos) ---

// TamperCiphertext flips stored ciphertext bytes, modelling a physical
// attacker writing DRAM.
func (m *Memory) TamperCiphertext(addr memsys.Addr, mutate func(*Line)) error {
	line, err := m.checkAddr(addr)
	if err != nil {
		return err
	}
	ct := m.lines[line]
	mutate(&ct)
	m.lines[line] = ct
	return nil
}

// TamperMAC overwrites the stored MAC for a line.
func (m *Memory) TamperMAC(addr memsys.Addr, tag MAC) error {
	line, err := m.checkAddr(addr)
	if err != nil {
		return err
	}
	m.macs[line] = tag
	return nil
}

// Snapshot captures the ciphertext+MAC of a line so a test can later replay
// it (the classic replay attack the Merkle tree must defeat).
func (m *Memory) Snapshot(addr memsys.Addr) (Line, MAC, error) {
	line, err := m.checkAddr(addr)
	if err != nil {
		return Line{}, MAC{}, err
	}
	return m.lines[line], m.macs[line], nil
}

// BlockState captures everything an attacker can roll back for one counter
// block: the counter values themselves and the stored (untrusted) tree leaf.
type BlockState struct {
	major  uint64
	minors []uint32
	leaf   integrity.Digest
}

// SnapshotBlock captures the full untrusted state of the counter block
// covering addr, for use with Replay.
func (m *Memory) SnapshotBlock(addr memsys.Addr) (BlockState, error) {
	line, err := m.checkAddr(addr)
	if err != nil {
		return BlockState{}, err
	}
	bi := m.ctrs.BlockOf(line)
	maj, min := m.ctrs.SnapshotBlock(bi)
	return BlockState{major: maj, minors: min, leaf: m.leafDigest(bi)}, nil
}

// Replay performs a complete replay attack against one line: it restores a
// previously captured ciphertext+MAC pair, rolls the counters back to their
// stale values AND rewrites the stored tree leaf — everything an attacker
// with full DRAM access can do. Only the on-chip root remains out of reach,
// and it is what catches the attack.
func (m *Memory) Replay(addr memsys.Addr, ct Line, tag MAC, stale BlockState) error {
	line, err := m.checkAddr(addr)
	if err != nil {
		return err
	}
	bi := m.ctrs.BlockOf(line)
	m.lines[line] = ct
	m.macs[line] = tag
	m.ctrs.RestoreBlock(bi, stale.major, stale.minors)
	m.tree.CorruptNode(0, bi, stale.leaf)
	return nil
}

// CounterOf reports the (major, minor) counter for a line (for examples).
func (m *Memory) CounterOf(addr memsys.Addr) (major uint64, minor uint32, err error) {
	line, err := m.checkAddr(addr)
	if err != nil {
		return 0, 0, err
	}
	major, minor = m.ctrs.Value(line)
	return major, minor, nil
}

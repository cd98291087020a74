// Package secmem models the memory-controller side of an AES-CTR secure
// memory system: the counter (CTR) cache, the MAC cache, Merkle-tree
// traversal traffic, counter increments with MorphCtr overflow
// re-encryption, and the latency of the secure fetch path. It parameterises
// the design points the paper evaluates (Table 4 plus the baselines):
// non-protected, MorphCtr, EMCC-like early access, COSMOS-DP, COSMOS-CP and
// full COSMOS.
package secmem

import (
	"fmt"
	"strings"

	"cosmos/internal/cache"
	"cosmos/internal/core"
	"cosmos/internal/ctr"
	"cosmos/internal/dram"
	"cosmos/internal/integrity"
	"cosmos/internal/memsys"
	"cosmos/internal/prefetch"
	"cosmos/internal/telemetry"
)

// EarlyMode says when the CTR cache is consulted relative to the data
// access.
type EarlyMode int

const (
	// EarlyNone: CTR access only after an LLC miss (MorphCtr baseline).
	EarlyNone EarlyMode = iota
	// EarlyAll: CTR access on every L1 miss (the Fig 4 oracle study and
	// the idealised EMCC design, which embeds the CTR cache at L2).
	EarlyAll
	// EarlyPredicted: CTR access on L1 misses the RL data location
	// predictor classifies as off-chip (COSMOS-DP, COSMOS).
	EarlyPredicted
)

// Design selects a secure-memory configuration.
type Design struct {
	Name   string
	Secure bool
	Early  EarlyMode
	// UseLCR enables the CTR locality predictor + LCR replacement in the
	// CTR cache (COSMOS-CP, COSMOS).
	UseLCR bool
	// CtrCacheBytes overrides the per-core CTR cache size (0 = config
	// default: 512KB for baselines, 128KB for LCR designs per Table 3).
	CtrCacheBytes int
	// CtrPolicy optionally overrides the CTR cache replacement policy
	// (Fig 5 study); empty = LRU (or LCR when UseLCR).
	CtrPolicy string
	// CtrPrefetcher optionally attaches a prefetcher to the CTR cache
	// (Fig 5 study): "", "nextline", "stride", "berti".
	CtrPrefetcher string
}

// The named design points.
func DesignNP() Design       { return Design{Name: "NP"} }
func DesignMorph() Design    { return Design{Name: "MorphCtr", Secure: true, Early: EarlyNone} }
func DesignEMCC() Design     { return Design{Name: "EMCC", Secure: true, Early: EarlyAll} }
func DesignOracleL1() Design { return Design{Name: "Morph@L1", Secure: true, Early: EarlyAll} }
func DesignCosmosDP() Design {
	return Design{Name: "COSMOS-DP", Secure: true, Early: EarlyPredicted}
}
func DesignCosmosCP() Design {
	return Design{Name: "COSMOS-CP", Secure: true, Early: EarlyNone, UseLCR: true}
}
func DesignCosmos() Design {
	return Design{Name: "COSMOS", Secure: true, Early: EarlyPredicted, UseLCR: true}
}

// DesignRMCC approximates RMCC (Wang et al., MICRO'22 — §6.2 of the paper):
// frequently accessed counters are retained near the memory controller via
// memoization. We model the retention with an aged-LFU metadata cache at
// the baseline's capacity; like RMCC, counter handling stays at the
// post-LLC-miss point.
func DesignRMCC() Design {
	return Design{Name: "RMCC", Secure: true, Early: EarlyNone, CtrPolicy: "LFU"}
}

// AllDesigns is the design registry: every named design point, in the
// paper's presentation order (baselines first, COSMOS variants, then the
// related-work comparison point). DesignByName and the public
// cosmos.Designs list both derive from it, so they cannot drift.
func AllDesigns() []Design {
	return []Design{
		DesignNP(), DesignMorph(), DesignEMCC(), DesignOracleL1(),
		DesignCosmosDP(), DesignCosmosCP(), DesignCosmos(), DesignRMCC(),
	}
}

// DesignNames lists the registry's design names in presentation order.
func DesignNames() []string {
	ds := AllDesigns()
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name
	}
	return names
}

// DesignByName resolves the standard designs; the error for an unknown
// name lists every valid one.
func DesignByName(name string) (Design, error) {
	for _, d := range AllDesigns() {
		if d.Name == name {
			return d, nil
		}
	}
	return Design{}, fmt.Errorf("secmem: unknown design %q (valid: %s)",
		name, strings.Join(DesignNames(), ", "))
}

// Config carries the Table 3 machine parameters relevant to the MC.
type Config struct {
	Cores      int
	MemBytes   uint64
	AESLat     uint64 // OTP generation (40 cycles)
	AuthLat    uint64 // MAC authentication (40 cycles)
	CtrHitLat  uint64 // CTR cache hit latency
	CombineLat uint64 // MorphCtr major+minor combination (1 cycle)

	CtrCacheBytes int // per core (512KB baseline)
	LCRCacheBytes int // per core for LCR designs (128KB)
	CtrCacheWays  int
	MACCacheBytes int

	// FullTraversal fetches every MT path node regardless of caching
	// (the paper's log-depth accounting); default stops at the first
	// cached node.
	FullTraversal bool
	// SecureRegionBytes bounds the protected range, SGXv1-style (the
	// <128MB EPC of §3.1): accesses at or above the bound skip all
	// metadata handling. 0 protects all of memory (SGXv2/SEV style).
	SecureRegionBytes uint64
	// MEETree builds the integrity tree over 8-line data groups
	// (SGX-MEE style) instead of over counter blocks (Bonsai style, the
	// default): a far deeper tree whose traffic the Bonsai organisation
	// — and MorphCtr's 1:128 coverage — exists to avoid.
	MEETree bool

	DRAM   dram.Config
	Params core.Params
	Seed   uint64
}

// DefaultConfig returns the Table 3 MC parameters.
func DefaultConfig() Config {
	return Config{
		Cores:         4,
		MemBytes:      32 << 30,
		AESLat:        40,
		AuthLat:       40,
		CtrHitLat:     2,
		CombineLat:    1,
		CtrCacheBytes: 512 << 10,
		LCRCacheBytes: 128 << 10,
		CtrCacheWays:  16,
		MACCacheBytes: 32 << 10,
		DRAM:          dram.DefaultConfig(),
		Params:        core.DefaultParams(),
		Seed:          1,
	}
}

// Validate rejects memory-controller parameters that would panic deep in
// NewEngine or Step, with errors that name the offending field.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("secmem: cores %d must be at least 1", c.Cores)
	}
	if c.MemBytes == 0 {
		return fmt.Errorf("secmem: zero memory size")
	}
	if err := cache.ValidateGeometry("ctr", c.CtrCacheBytes, c.CtrCacheWays); err != nil {
		return fmt.Errorf("secmem: %w", err)
	}
	if err := cache.ValidateGeometry("lcr-ctr", c.LCRCacheBytes, c.CtrCacheWays); err != nil {
		return fmt.Errorf("secmem: %w", err)
	}
	if err := cache.ValidateGeometry("mac", c.MACCacheBytes, 8); err != nil {
		return fmt.Errorf("secmem: %w", err)
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	return nil
}

// Traffic decomposes DRAM requests the way Fig 2 does.
type Traffic struct {
	DataRead        uint64
	DataWrite       uint64
	CtrRead         uint64
	CtrWrite        uint64 // dirty counter-block writebacks
	MTRead          uint64
	MACRead         uint64
	MACWrite        uint64
	ReEncWrite      uint64 // background re-encryption requests
	WastedDataFetch uint64 // killed DRAM fetches from off-chip mispredictions
}

// Total sums all DRAM requests.
func (t Traffic) Total() uint64 {
	return t.DataRead + t.DataWrite + t.CtrRead + t.CtrWrite +
		t.MTRead + t.MACRead + t.MACWrite + t.ReEncWrite + t.WastedDataFetch
}

// ReEncStats accounts re-encryption activity: MorphCtr minor-counter
// overflows and the storms of data-line writes they force.
type ReEncStats struct {
	OverflowEvents uint64 // counter-block overflows observed
	OverflowLines  uint64 // lines re-encrypted because of overflows
	StallCycles    uint64 // summed DRAM occupancy of re-encryption writes
}

// Engine is the secure memory controller.
type Engine struct {
	cfg    Config
	design Design

	dram      *dram.Model
	layout    *integrity.SecureLayout
	ctrStore  *ctr.Store
	ctrCaches []*cache.Cache
	lcrPols   []*cache.LCR // non-nil when UseLCR
	macCaches []*cache.Cache

	// COSMOS predictors (shared structures in the MC).
	DataPred *core.DataPredictor
	CtrPred  *core.LocalityPredictor

	pf      prefetch.Prefetcher
	pfStats prefetch.Stats
	pfMark  map[uint64]bool // ctr cache lines filled by prefetch, not yet used

	pathBuf []memsys.Addr

	// walkHist, when non-nil, receives the number of MT path nodes fetched
	// from DRAM per verification walk (telemetry; see RegisterMetrics).
	walkHist *telemetry.Histogram

	// spans, when non-nil, is the attached span recorder: metadata-path
	// events (counter hits/misses, MT walks, MAC fetches, re-encryption
	// storms) feed its per-cause histograms and, for sampled accesses, its
	// span trees. Nil (the default) costs one branch per site.
	spans *telemetry.SpanRecorder

	Traffic   Traffic
	ReEnc     ReEncStats
	CtrHits   uint64
	CtrMisses uint64
}

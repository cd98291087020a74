package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cosmos/internal/secmem"
	"cosmos/internal/sim"
)

// hashVersion prefixes every canonical encoding. Bump it whenever the Spec
// schema or the simulator's semantics change in a way that invalidates
// stored results: old store entries then simply miss and are recomputed.
const hashVersion = "cosmos-run-v1"

// Spec fully describes one simulation: everything that can influence its
// Results is in here, and nothing else. Two Specs with equal canonical
// hashes (Key) are guaranteed to produce bit-identical Results — the
// simulator is deterministic — which is what lets the orchestrator memoise,
// deduplicate and persist runs without ever changing a number.
type Spec struct {
	// Workload is a workloads.Build name (including "file:<path>" replays).
	Workload string `json:"workload"`
	// Design is the fully resolved design point, including any per-run
	// tweaks (CTR cache size, policy, prefetcher).
	Design secmem.Design `json:"design"`
	// Cores selects the machine: 8 picks the Fig 15 8-core config, any
	// other non-zero value adjusts the default 4-core config. 0 means 4.
	// Ignored when Config is set.
	Cores int `json:"cores"`
	// Accesses caps the simulation length.
	Accesses uint64 `json:"accesses"`
	// GraphNodes / GraphDegree size the synthetic graph workloads.
	GraphNodes  int `json:"graph_nodes"`
	GraphDegree int `json:"graph_degree"`
	// Seed fixes all randomness (machine and workload). Ignored for the
	// machine side when Config is set — Config carries its own seeds.
	Seed uint64 `json:"seed"`

	// Config, when non-nil, overrides the whole machine configuration
	// verbatim (ablation studies that tweak MC parameters). The caller is
	// responsible for setting Config.MC.Seed and friends; the spec's Seed
	// then only feeds the workload generator.
	Config *sim.Config `json:"config,omitempty"`

	// Label optionally overrides DisplayLabel for progress reporting and
	// telemetry file names. It never enters the hash.
	Label string `json:"label,omitempty"`
}

// normalized returns the canonical form: defaults applied, display-only
// fields cleared. Key and the executor both operate on this form, so a
// caller writing Cores: 0 and one writing Cores: 4 share a cache cell.
func (s Spec) normalized() Spec {
	if s.Cores == 0 {
		s.Cores = 4
	}
	if s.Config != nil && s.Config.Cores != 0 {
		s.Cores = s.Config.Cores
	}
	s.Label = ""
	return s
}

// Key returns the canonical content hash of the spec: a SHA-256 over the
// versioned JSON encoding of the normalized spec. JSON struct encoding is
// deterministic (fields in declaration order, no maps involved), so equal
// specs always produce equal keys, across processes and runs. The key is
// the identity used for memoisation, singleflight deduplication and the
// on-disk result store.
func (s Spec) Key() string {
	n := s.normalized()
	b, err := json.Marshal(struct {
		Version string `json:"v"`
		Spec    Spec   `json:"spec"`
	}{hashVersion, n})
	if err != nil {
		// Spec is plain data (no channels, funcs or cycles); Marshal
		// cannot fail. A failure here is a programming error.
		panic(fmt.Sprintf("runner: cannot hash spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// DisplayLabel returns a filename-safe identifier for the run: workload and
// design plus any non-default tweaks (matching the historical telemetry
// file naming), or the sanitised Label override when set.
func (s Spec) DisplayLabel() string {
	if s.Label != "" {
		return sanitizeLabel(s.Label)
	}
	n := s.normalized()
	label := n.Workload + "_" + n.Design.Name
	if n.Cores != 4 {
		label += fmt.Sprintf("_c%d", n.Cores)
	}
	// Only tweaks relative to the named design's defaults are appended, so
	// e.g. RMCC (whose LFU policy is part of the design) keeps its plain
	// label while a Fig 5 policy-override run is distinguishable.
	base, err := secmem.DesignByName(n.Design.Name)
	if err != nil {
		base = secmem.Design{}
	}
	if n.Design.CtrCacheBytes != 0 && n.Design.CtrCacheBytes != base.CtrCacheBytes {
		label += fmt.Sprintf("_ctr%dk", n.Design.CtrCacheBytes>>10)
	}
	if n.Design.CtrPolicy != "" && n.Design.CtrPolicy != base.CtrPolicy {
		label += "_" + n.Design.CtrPolicy
	}
	if n.Design.CtrPrefetcher != "" && n.Design.CtrPrefetcher != base.CtrPrefetcher {
		label += "_" + n.Design.CtrPrefetcher
	}
	if n.Config != nil {
		label += "_cfg" + s.Key()[:8]
	}
	return sanitizeLabel(label)
}

func sanitizeLabel(label string) string {
	b := make([]byte, 0, len(label))
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
			b = append(b, byte(r))
		default:
			b = append(b, '-')
		}
	}
	return string(b)
}

// config materialises the machine configuration the spec describes,
// mirroring what cosmos.Run and experiments.Lab historically built.
func (s Spec) config() sim.Config {
	if s.Config != nil {
		return *s.Config
	}
	var cfg sim.Config
	if s.Cores == 8 {
		cfg = sim.EightCore()
	} else {
		cfg = sim.DefaultConfig()
		cfg.Cores = s.Cores
	}
	cfg.MC.Seed = s.Seed
	cfg.MC.Params.Seed = s.Seed
	return cfg
}

// walkKey identifies the access stream and the on-chip hierarchy a
// normalized spec's simulation walks: workload, seed, cores, accesses,
// graph parameters and the resolved on-chip levels. Specs with one walk
// key differ at most in their secure-memory side, so RunAll runs them as
// one group (sim.RunGroup). It is an in-memory grouping key, never stored.
func (s Spec) walkKey() string {
	b, err := json.Marshal(struct {
		Workload    string
		Seed        uint64
		Cores       int
		Accesses    uint64
		GraphNodes  int
		GraphDegree int
		Levels      []sim.LevelSpec
	}{s.Workload, s.Seed, s.Cores, s.Accesses, s.GraphNodes, s.GraphDegree, s.config().OnChip()})
	if err != nil {
		panic(fmt.Sprintf("runner: cannot encode walk key: %v", err))
	}
	return string(b)
}

// Validate rejects specs the executor cannot run, before any simulation
// state is built: an empty workload name, a zero access budget, negative
// core counts or bad machine geometry. The orchestrator calls it at the
// head of every simulate, so a malformed spec fails fast with a named field
// instead of panicking deep in Step.
func (s Spec) Validate() error {
	if s.Workload == "" {
		return fmt.Errorf("runner: spec has empty workload (pick a workloads.Build name)")
	}
	if s.Design.Name == "" {
		return fmt.Errorf("runner: spec has empty design name")
	}
	if s.Accesses == 0 {
		return fmt.Errorf("runner: spec has zero accesses — nothing to simulate")
	}
	if s.Cores < 0 {
		return fmt.Errorf("runner: negative core count %d", s.Cores)
	}
	n := s.normalized()
	return n.config().Validate()
}

package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"cosmos/internal/sim"
)

// digest fingerprints every simulated statistic of a cell. Results carries
// no wall-clock field, so equal digests mean bit-identical simulations.
func digest(r sim.Results) string {
	b, err := json.Marshal(r)
	if err != nil {
		// Results is plain data; Marshal cannot fail.
		panic(fmt.Sprintf("benchmark: cannot encode results: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

//go:embed golden.json
var goldenJSON []byte

// goldenFile holds the per-cell digests of the canonical seed, keyed by
// "<workload>/<cell label>". Only -update-golden rewrites it.
type goldenFile struct {
	Seed  uint64            `json:"seed"`
	Cells map[string]string `json:"cells"`
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	if g.Cells == nil {
		g.Cells = map[string]string{}
	}
	return g, nil
}

// checkCells counts the failed cells of one repetition: a cell error, a
// digest that differs from the first repetition's, or, on the canonical
// seed, a digest that differs from the golden one. first maps labels to the
// digests seen so far and is extended in place; golden is nil when the run
// does not check goldens. Each failure is described in problems.
func checkCells(workload string, cells []cellResult, first map[string]string, golden map[string]string) (failed int, problems []string) {
	for _, c := range cells {
		switch {
		case c.Err != "":
			problems = append(problems, fmt.Sprintf("%s/%s: %s", workload, c.Label, c.Err))
		case first[c.Label] != "" && first[c.Label] != c.Digest:
			problems = append(problems, fmt.Sprintf("%s/%s: digest %s differs between repetitions (%s)",
				workload, c.Label, c.Digest, first[c.Label]))
		case golden != nil && golden[workload+"/"+c.Label] != c.Digest:
			problems = append(problems, fmt.Sprintf("%s/%s: digest %s, golden %q",
				workload, c.Label, c.Digest, golden[workload+"/"+c.Label]))
		default:
			if first[c.Label] == "" {
				first[c.Label] = c.Digest
			}
			continue
		}
		failed++
	}
	return failed, problems
}

// updateGolden replaces the digests of the given workloads in the golden
// set with the ones just measured and writes the result to path.
func updateGolden(path string, g goldenFile, measured map[string]map[string]string) error {
	for workload, cells := range measured {
		for k := range g.Cells {
			if strings.HasPrefix(k, workload+"/") {
				delete(g.Cells, k)
			}
		}
		for label, d := range cells {
			g.Cells[workload+"/"+label] = d
		}
	}
	g.Seed = canonicalSeed
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// SchemaVersion identifies the report format. Readers reject other schemas
// instead of misinterpreting them.
const SchemaVersion = "cosmos-perf-v1"

// Directions a metric can prefer.
const (
	BetterLower  = "lower"  // latencies, allocations
	BetterHigher = "higher" // throughputs
)

// Metric is one measured quantity: N repeated samples plus the derived
// median and IQR (stored redundantly so reports are human-skimmable, but
// always recomputed from Samples when comparing).
type Metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"` // BetterLower | BetterHigher
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	IQR     float64   `json:"iqr"`
}

// SuiteInfo records the suite regime a report was measured under, so two
// reports are only trusted comparable when the regime matches.
type SuiteInfo struct {
	Samples   int     `json:"samples"`
	StepOps   int     `json:"step_ops"`
	WarmSteps int     `json:"warm_steps"`
	DecodeOps int     `json:"decode_ops"`
	E2EScale  float64 `json:"e2e_scale"`
	Handicap  float64 `json:"handicap,omitempty"` // ratchet self-test knob; 0/1 = none
}

// Report is one BENCH_<n>.json: the committed perf-trajectory unit.
type Report struct {
	Schema      string      `json:"schema"`
	Seq         int         `json:"seq,omitempty"`
	CreatedUnix int64       `json:"created_unix"`
	Fingerprint Fingerprint `json:"fingerprint"`
	Suite       SuiteInfo   `json:"suite"`
	Metrics     []Metric    `json:"metrics"`
}

// Metric returns the named metric (nil when absent).
func (r *Report) Metric(name string) *Metric {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			return &r.Metrics[i]
		}
	}
	return nil
}

// finalize recomputes the derived fields of every metric.
func (r *Report) finalize() {
	for i := range r.Metrics {
		m := &r.Metrics[i]
		m.Median = Median(m.Samples)
		m.IQR = IQR(m.Samples)
	}
}

// WriteFile writes the report as indented JSON (trailing newline, so the
// committed file is diff-friendly).
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadReport loads and schema-checks a report file.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("perf: parse %s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("perf: %s has schema %q, want %q", path, r.Schema, SchemaVersion)
	}
	return &r, nil
}

// HistoryEntry is one line of perf/HISTORY.jsonl: the append-only perf
// trajectory. Each committed BENCH_<n>.json adds one line holding just the
// per-metric medians, so the whole speed history of the repo reads as a
// time-series without opening every report.
type HistoryEntry struct {
	Seq           int                `json:"seq"`
	CreatedUnix   int64              `json:"created_unix"`
	FingerprintID string             `json:"fingerprint_id"`
	Medians       map[string]float64 `json:"medians"`
}

// HistoryEntryOf summarises a report for the trajectory.
func HistoryEntryOf(r *Report) HistoryEntry {
	e := HistoryEntry{
		Seq:           r.Seq,
		CreatedUnix:   r.CreatedUnix,
		FingerprintID: r.Fingerprint.ID(),
		Medians:       make(map[string]float64, len(r.Metrics)),
	}
	for _, m := range r.Metrics {
		e.Medians[m.Name] = m.Median
	}
	return e
}

// AppendHistory appends one entry to the trajectory file, creating it (and
// its directory) if needed.
func AppendHistory(path string, e HistoryEntry) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(b, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// ReadHistory parses a trajectory file into entries (in file order).
func ReadHistory(path string) ([]HistoryEntry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []HistoryEntry
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var e HistoryEntry
		if err := dec.Decode(&e); err != nil {
			return out, fmt.Errorf("perf: parse %s entry %d: %w", path, len(out)+1, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// MetricNames returns the sorted union of metric names across reports.
func MetricNames(reports ...*Report) []string {
	seen := map[string]bool{}
	for _, r := range reports {
		for _, m := range r.Metrics {
			seen[m.Name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

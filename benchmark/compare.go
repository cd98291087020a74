package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// compareMain prints one row per workload and bounded metric of two -report
// files, each classified by the rule of choosing-metrics §6.5:
//
//   - improved: the new runs win at least nine tenths of all base×new pairs
//     and the medians differ by more than the base runs' quartile spread;
//   - unresolved: the spread of either side is wider than the bound, unless
//     every new run reads better than every base run;
//   - worse: the new median is worse than the base median by more than the
//     bound;
//   - unchanged: anything else.
//
// It exits 1 when any row is worse or unresolved.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, errUsage)
		return 2
	}
	base, err := readReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cur, err := readReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if base.Fingerprint != cur.Fingerprint {
		fmt.Fprintf(w, "warning: measured on different hosts:\n  base %s\n  new  %s\n", base.Fingerprint, cur.Fingerprint)
	}
	bad := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tchange\tspread\tbound\tverdict")
	for _, bw := range base.Workloads {
		for _, bm := range bw.Metrics {
			if bm.Bound <= 0 {
				continue
			}
			nm, ok := cur.find(bw.Name, bm.Name)
			if !ok {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t-\t-\t-\t%.0f%%\tunresolved\n", bw.Name, bm.Name, median(bm.Values), 100*bm.Bound)
				bad++
				continue
			}
			v, change, spread := classify(bm.metricDef, bm.Values, nm.Values)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n", bw.Name, bm.Name,
				median(bm.Values), median(nm.Values), 100*change, 100*spread, 100*bm.Bound, v)
		}
	}
	tw.Flush()
	if bad > 0 {
		return 1
	}
	return 0
}

// classify returns the verdict, the relative change of the median (new
// against base) and the wider of the two sides' quartile spreads.
func classify(m metricDef, base, cur []float64) (verdict string, change, spread float64) {
	bm := median(base)
	change = ratio(median(cur)-bm, bm)
	worse := change // by how much the new median is worse
	better := func(x, y float64) bool { return x < y }
	if m.Better == "higher" {
		worse = -change
		better = func(x, y float64) bool { return x > y }
	}
	spread = max(iqrShare(base), iqrShare(cur))

	wins, pairs := 0, 0
	for _, b := range base {
		for _, c := range cur {
			pairs++
			if better(c, b) {
				wins++
			}
		}
	}
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && -worse > iqrShare(base):
		return "improved", change, spread
	case pairs > 0 && wins == pairs:
		return "unchanged", change, spread
	case spread > m.Bound:
		return "unresolved", change, spread
	case worse > m.Bound:
		return "worse", change, spread
	}
	return "unchanged", change, spread
}

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func (r report) find(workload, metric string) (metricSamples, bool) {
	for _, w := range r.Workloads {
		if w.Name != workload {
			continue
		}
		for _, m := range w.Metrics {
			if m.Name == metric {
				return m, true
			}
		}
	}
	return metricSamples{}, false
}

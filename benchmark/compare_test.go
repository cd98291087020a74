package main

import "testing"

func TestClassify(t *testing.T) {
	perSec := metricDef{Name: "accesses_per_s", Unit: "acc/s", Better: "higher", Bound: 0.08}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name      string
		base, cur []float64
		want      string
	}{
		{"same runs", steady, []float64{101, 99, 100, 102, 100}, "unchanged"},
		{"within bound", steady, []float64{96, 95, 97, 96, 95}, "unchanged"},
		{"beyond bound", steady, []float64{80, 81, 79, 80, 82}, "worse"},
		{"every run better", steady, []float64{120, 121, 119, 120, 122}, "improved"},
		{"spread wider than bound", []float64{70, 85, 100, 115, 130}, []float64{72, 86, 99, 116, 128}, "unresolved"},
		{"wide but every run better", []float64{70, 85, 100, 115, 130}, []float64{140, 150, 160, 170, 180}, "improved"},
	} {
		if got, _, _ := classify(perSec, tc.base, tc.cur); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}

	// For a lower-is-better metric the same numbers read the other way.
	setup := metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	if got, _, _ := classify(setup, steady, []float64{130, 131, 129, 130, 132}); got != "worse" {
		t.Errorf("slower set-up: %s, want worse", got)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cosmos/internal/experiments"
)

// TestMain lets the test binary serve as the benchmark's child process, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(nil, os.Stdout, sizes{}))
	}
	os.Exit(m.Run())
}

// toySizes runs every workload and the traced run in seconds.
func toySizes() sizes {
	return sizes{
		Irregular:  20_000,
		Regular:    20_000,
		Learned:    10_000,
		GraphNodes: 20_000,
		Traced:     20_000,
		Campaign:   experiments.Scale{GraphNodes: 20_000, GraphDegree: 8, Accesses: 10_000},
	}
}

// declaration is the part of BENCHMARK.json the benchmark must agree with.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMetricsMatchDeclaration(t *testing.T) {
	d := readDeclaration(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(d.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, benchmark emits %+v", d.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(d.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's perLayer")
	}
}

// TestSmoke runs all four workloads and then the traced run at toy size and
// checks that each emits exactly the declared metrics, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := readDeclaration(t)
	for _, mode := range []struct {
		args []string
		want []metricDef
	}{
		{[]string{"-seconds", "0.1"}, d.EndToEnd},
		{[]string{"-trace", "1"}, d.PerLayer},
	} {
		var out bytes.Buffer
		// Seed 7: toy sizes have no goldens; repetitions must still agree.
		if code := run(append([]string{"-seed", "7"}, mode.args...), &out, toySizes()); code != 0 {
			t.Fatalf("%v exited %d:\n%s", mode.args, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var sum summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("%v: last line is not the summary: %v", mode.args, err)
		}
		if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
			t.Errorf("%v: correct=%v attempted=%d failed=%d", mode.args, sum.Correct, sum.Attempted, sum.Failed)
		}
		want := map[string]string{}
		for _, w := range workloadNames {
			for _, m := range mode.want {
				want[w+"/"+m.Name] = m.Unit
			}
		}
		for name, v := range sum.Metrics {
			if unit, ok := want[name]; !ok {
				t.Errorf("%v: undeclared metric %s", mode.args, name)
			} else if v.Unit != unit {
				t.Errorf("%v: %s in %q, declared %q", mode.args, name, v.Unit, unit)
			}
		}
		for name := range want {
			if _, ok := sum.Metrics[name]; !ok {
				t.Errorf("%v: declared metric %s not emitted", mode.args, name)
			}
		}
	}
}

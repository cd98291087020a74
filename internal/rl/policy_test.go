package rl

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// trainFor runs a deterministic synthetic workload through a policy: keys
// with bit 12 set should prefer action 1, others action 0.
func trainFor(p Policy, n int) {
	rng := NewRand(1234)
	for i := 0; i < n; i++ {
		key := rng.Uint64() &^ 63
		d := p.Act(key)
		want := 0
		if key&(1<<12) != 0 {
			want = 1
		}
		r := -10.0
		if d.Action == want {
			r = 10
		}
		p.Learn(Transition{Key: key, State: d.State, Action: d.Action, Reward: r})
	}
}

func allKinds(t *testing.T) map[string]Policy {
	t.Helper()
	return map[string]Policy{
		KindTabular:    NewAgent(NewQTable(1024, 2), 0.1, 0.5, 0.05, 7),
		KindPerceptron: NewPerceptron(0, 0, 0),
		KindMLP:        NewMLP(0, 0, 7),
	}
}

func TestPolicyKindsComplete(t *testing.T) {
	kinds := PolicyKinds()
	if len(kinds) != 3 {
		t.Fatalf("PolicyKinds = %v, want 3 kinds", kinds)
	}
	for name, p := range allKinds(t) {
		if p.Kind() != name {
			t.Errorf("policy %s reports Kind %q", name, p.Kind())
		}
		found := false
		for _, k := range kinds {
			if k == name {
				found = true
			}
		}
		if !found {
			t.Errorf("kind %s missing from PolicyKinds", name)
		}
	}
	if len(PolicyKindDescriptions()) != len(kinds) {
		t.Error("PolicyKindDescriptions out of sync with PolicyKinds")
	}
}

func TestPolicyRoundTripGolden(t *testing.T) {
	// Train each kind, snapshot, restore into a fresh policy, and require
	// identical frozen decisions on a probe set — the round-trip golden.
	for name, p := range allKinds(t) {
		t.Run(name, func(t *testing.T) {
			trainFor(p, 5000)
			sn := p.Snapshot()
			if sn.Version != SnapshotVersion || sn.Kind != name {
				t.Fatalf("snapshot header = %q/%q", sn.Version, sn.Kind)
			}
			b, err := json.Marshal(sn)
			if err != nil {
				t.Fatal(err)
			}
			sn2, err := DecodeSnapshot(b)
			if err != nil {
				t.Fatal(err)
			}
			q, err := FromSnapshot(sn2)
			if err != nil {
				t.Fatal(err)
			}
			p.Freeze()
			q.Freeze()
			rng := NewRand(99)
			for i := 0; i < 2000; i++ {
				key := rng.Uint64() &^ 63
				if got, want := q.Act(key), p.Act(key); got != want {
					t.Fatalf("restored %s diverged at key %#x: %v vs %v", name, key, got, want)
				}
				if got, want := q.Score(key, 0, 0), p.Score(key, 0, 0); got != want {
					t.Fatalf("restored %s score diverged at key %#x", name, key)
				}
			}
			if q.StorageBits() != p.StorageBits() {
				t.Errorf("StorageBits changed across round trip: %d vs %d", q.StorageBits(), p.StorageBits())
			}
		})
	}
}

func TestPolicyFileSaveLoad(t *testing.T) {
	dir := t.TempDir()
	for name, p := range allKinds(t) {
		trainFor(p, 2000)
		path := filepath.Join(dir, name+".json")
		if err := SavePolicy(path, p, "ctr"); err != nil {
			t.Fatal(err)
		}
		sn, err := LoadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if sn.Meta.Role != "ctr" {
			t.Errorf("%s: role not stamped, got %q", name, sn.Meta.Role)
		}
		q, err := LoadPolicy(path)
		if err != nil {
			t.Fatal(err)
		}
		if q.Kind() != name {
			t.Errorf("loaded kind %q, want %q", q.Kind(), name)
		}
	}
}

func TestPolicySpecValidate(t *testing.T) {
	var nilSpec *PolicySpec
	if err := nilSpec.Validate(); err != nil {
		t.Errorf("nil spec must validate: %v", err)
	}
	err := (&PolicySpec{Kind: "transformer"}).Validate()
	if err == nil || !strings.Contains(err.Error(), "tabular, perceptron, mlp") {
		t.Errorf("unknown kind error should list valid kinds, got %v", err)
	}
	if err := (&PolicySpec{Kind: KindTabular, States: 1000}).Validate(); err == nil {
		t.Error("non-power-of-two states must be rejected")
	}
	if err := (&PolicySpec{Kind: KindPerceptron, Buckets: 48}).Validate(); err == nil {
		t.Error("non-power-of-two buckets must be rejected")
	}
	if err := (&PolicySpec{Kind: KindMLP, Hidden: -1}).Validate(); err == nil {
		t.Error("negative hidden must be rejected")
	}
	// With several negative fields the error names the first in field
	// order, every time.
	for i := 0; i < 20; i++ {
		err := (&PolicySpec{Kind: KindMLP, Theta: -2, Hidden: -1, Features: -3}).Validate()
		if err == nil || err.Error() != "rl: policy features -3 must not be negative" {
			t.Fatalf("run %d: error = %v, want the features field named", i, err)
		}
	}
	for _, k := range PolicyKinds() {
		if err := (&PolicySpec{Kind: k}).Validate(); err != nil {
			t.Errorf("bare kind %q should validate: %v", k, err)
		}
		if _, err := NewPolicy(PolicySpec{Kind: k}, 1); err != nil {
			t.Errorf("NewPolicy(%q): %v", k, err)
		}
	}
}

func TestNewPolicyFrozenSpec(t *testing.T) {
	p := NewPerceptron(0, 0, 0)
	trainFor(p, 3000)
	sn := p.Snapshot()
	q, err := NewPolicy(PolicySpec{Frozen: &sn}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Frozen() {
		t.Fatal("policy from frozen spec must be frozen")
	}
	// Learning must be inert and Reset must not clear weights.
	before := q.Act(1 << 12)
	q.Learn(Transition{Key: 1 << 12, Action: before.Action, Reward: -100})
	q.Reset()
	if after := q.Act(1 << 12); after != before {
		t.Error("frozen policy changed behaviour after Learn/Reset")
	}
	// Kind mismatch between spec and snapshot is rejected.
	if _, err := NewPolicy(PolicySpec{Kind: KindMLP, Frozen: &sn}, 0); err == nil {
		t.Error("kind/snapshot mismatch must be rejected")
	}
}

func TestPolicyDeterminismAcrossInstances(t *testing.T) {
	// Two identically-constructed policies fed the same sequence make the
	// same decisions at every step — including the learning phase.
	build := map[string]func() Policy{
		KindTabular:    func() Policy { return NewAgent(NewQTable(1024, 2), 0.1, 0.5, 0.05, 7) },
		KindPerceptron: func() Policy { return NewPerceptron(0, 0, 0) },
		KindMLP:        func() Policy { return NewMLP(0, 0, 7) },
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			a, b := mk(), mk()
			rng := NewRand(55)
			for i := 0; i < 5000; i++ {
				key := rng.Uint64() &^ 63
				da, db := a.Act(key), b.Act(key)
				if da != db {
					t.Fatalf("instances diverged at step %d", i)
				}
				r := 10.0
				if key&128 != 0 {
					r = -10
				}
				tr := Transition{Key: key, State: da.State, Action: da.Action, Reward: r}
				a.Learn(tr)
				b.Learn(tr)
			}
		})
	}
}

func TestRecorderTees(t *testing.T) {
	var got []Transition
	p := WithRecorder(NewPerceptron(0, 0, 0), func(t Transition) { got = append(got, t) })
	p.Learn(Transition{Key: 64, Action: 1, Reward: 5})
	p.Learn(Transition{Key: 128, Action: 0, Reward: -5})
	if len(got) != 2 || got[0].Key != 64 || got[1].Reward != -5 {
		t.Fatalf("recorder saw %v", got)
	}
	if p.Kind() != KindPerceptron {
		t.Error("recorder must delegate Kind")
	}
}

func TestLoadPolicyErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := map[string]string{
		"garbage":    "not json at all {",
		"wrong-ver":  `{"version":"cosmos-policy-v0","kind":"tabular","meta":{},"weights":""}`,
		"bad-kind":   `{"version":"cosmos-policy-v1","kind":"transformer","meta":{},"weights":""}`,
		"truncated":  `{"version":"cosmos-policy-v1","kind":"mlp","meta":{"inputs":16,"hidden":8},"weights":"AAAA"}`,
		"bad-shape":  `{"version":"cosmos-policy-v1","kind":"tabular","meta":{"states":1000,"actions":2},"weights":""}`,
		"neg-shape":  `{"version":"cosmos-policy-v1","kind":"perceptron","meta":{"features":-1,"buckets":64},"weights":""}`,
		"zero-shape": `{"version":"cosmos-policy-v1","kind":"mlp","meta":{},"weights":""}`,
	}
	for name, content := range cases {
		if _, err := LoadPolicy(write(name+".json", content)); err == nil {
			t.Errorf("%s: LoadPolicy should error", name)
		}
	}
	if _, err := LoadPolicy(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

func FuzzLoadPolicy(f *testing.F) {
	// Seed with a valid file of each kind plus assorted corruption.
	for _, p := range []Policy{
		NewAgent(NewQTable(64, 2), 0.1, 0.5, 0, 1),
		NewPerceptron(2, 64, 10),
		NewMLP(4, 2, 1),
	} {
		b, err := json.Marshal(p.Snapshot())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte(`{"version":"cosmos-policy-v1","kind":"tabular"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; on success the policy must be usable.
		sn, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		p, err := FromSnapshot(sn)
		if err != nil {
			return
		}
		d := p.Act(0x1000)
		if d.Action != 0 && d.Action != 1 {
			t.Fatalf("action out of range: %d", d.Action)
		}
		p.Score(0x1000, d.State, d.Action)
		rt := p.Snapshot()
		if rt.Kind != sn.Kind {
			t.Fatalf("round-trip kind changed: %q -> %q", sn.Kind, rt.Kind)
		}
	})
}

func TestAgentSnapshotPreservesTable(t *testing.T) {
	ag := NewAgent(NewQTable(64, 2), 0.2, 0.7, 0.05, 3)
	trainFor(ag, 3000)
	sn := ag.Snapshot()
	ag2 := NewAgent(NewQTable(64, 2), 0, 0, 0, 0)
	if err := ag2.Restore(sn); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ag.Table.q, ag2.Table.q) {
		t.Fatal("restored Q-table differs")
	}
	if ag2.Alpha != 0.2 || ag2.Gamma != 0.7 || ag2.Epsilon != 0.05 {
		t.Errorf("hyper-parameters not restored: %+v", ag2)
	}
}

func TestFreezeSemantics(t *testing.T) {
	for name, p := range allKinds(t) {
		trainFor(p, 2000)
		p.Freeze()
		if !p.Frozen() {
			t.Errorf("%s: Frozen() false after Freeze", name)
		}
		if p.ExplorationRate() != 0 && name != KindTabular {
			t.Errorf("%s: deterministic policy reports exploration", name)
		}
		before := p.Snapshot()
		p.Learn(Transition{Key: 4096, Action: 0, Reward: 100})
		p.Reset()
		after := p.Snapshot()
		if !reflect.DeepEqual(before.Weights, after.Weights) {
			t.Errorf("%s: frozen weights changed after Learn/Reset", name)
		}
	}
	// Tabular freeze zeroes ε so the rng is never consumed again.
	ag := NewAgent(NewQTable(64, 2), 0.1, 0.5, 0.9, 1)
	ag.Freeze()
	if ag.Epsilon != 0 {
		t.Error("freeze must zero ε")
	}
}

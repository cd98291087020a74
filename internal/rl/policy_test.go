package rl

import (
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
	// Train each kind, snapshot, restore into a fresh policy of the same
	// kind, and require the same snapshot back and identical deterministic
	// outputs on a probe set — the round-trip golden.
	for name, p := range allKinds(t) {
		t.Run(name, func(t *testing.T) {
			trainFor(p, 5000)
			sn := p.Snapshot()
			if sn.Kind != name {
				t.Fatalf("snapshot kind = %q", sn.Kind)
			}
			q := allKinds(t)[name]
			if err := q.Restore(sn); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(q.Snapshot(), sn) {
				t.Fatal("restored policy snapshots differently")
			}
			rng := NewRand(99)
			for i := 0; i < 2000; i++ {
				key := rng.Uint64() &^ 63
				state := p.Act(key).State
				if got := q.Act(key).State; got != state {
					t.Fatalf("restored %s state diverged at key %#x: %d vs %d", name, key, got, state)
				}
				for a := 0; a < 2; a++ {
					if got, want := q.Value(key, state, a), p.Value(key, state, a); got != want {
						t.Fatalf("restored %s value diverged at key %#x", name, key)
					}
					if got, want := q.Score(key, state, a), p.Score(key, state, a); got != want {
						t.Fatalf("restored %s score diverged at key %#x", name, key)
					}
				}
			}
			if q.StorageBits() != p.StorageBits() {
				t.Errorf("StorageBits changed across round trip: %d vs %d", q.StorageBits(), p.StorageBits())
			}
		})
	}
}

func TestPolicySpecValidate(t *testing.T) {
	var nilSpec *PolicySpec
	if err := nilSpec.Validate(); err != nil {
		t.Errorf("nil spec must validate: %v", err)
	}
	for _, kind := range []string{"transformer", ""} {
		err := (&PolicySpec{Kind: kind}).Validate()
		if err == nil || !strings.Contains(err.Error(), "tabular, perceptron, mlp") {
			t.Errorf("kind %q: error should list valid kinds, got %v", kind, err)
		}
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

func TestRestoreRejectsMalformedSnapshot(t *testing.T) {
	cases := map[string]Snapshot{
		"wrong-kind": {Kind: KindPerceptron, Meta: SnapshotMeta{States: 64, Actions: 2}, Weights: make([]byte, 64*2*8)},
		"truncated":  {Kind: KindMLP, Meta: SnapshotMeta{Inputs: 16, Hidden: 8}, Weights: make([]byte, 3)},
		"bad-shape":  {Kind: KindTabular, Meta: SnapshotMeta{States: 1000, Actions: 2}},
		"neg-shape":  {Kind: KindPerceptron, Meta: SnapshotMeta{Features: -1, Buckets: 64}},
		"zero-shape": {Kind: KindMLP},
	}
	for name, sn := range cases {
		fresh := map[string]Policy{
			KindTabular:    NewAgent(NewQTable(64, 2), 0, 0, 0, 0),
			KindPerceptron: NewPerceptron(0, 0, 0),
			KindMLP:        NewMLP(0, 0, 0),
		}
		target := fresh[sn.Kind]
		if name == "wrong-kind" {
			target = fresh[KindTabular]
		}
		if err := target.Restore(sn); err == nil {
			t.Errorf("%s: Restore should error", name)
		}
	}
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

package policy

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"banditware/internal/rng"
)

// trainPolicy feeds a fixed synthetic trace (runtime linear in x per
// arm) so every policy accumulates non-trivial learned state.
func trainPolicy(t *testing.T, p Policy, rounds int) {
	t.Helper()
	slopes := []float64{5, 3, 1}
	r := rng.New(99)
	for i := 0; i < rounds; i++ {
		x := []float64{r.Uniform(1, 100)}
		arm, err := p.Select(x)
		if err != nil {
			t.Fatalf("%s select: %v", p.Name(), err)
		}
		rt := slopes[arm%len(slopes)]*x[0] + 10
		if err := p.Update(arm, x, rt); err != nil {
			t.Fatalf("%s update: %v", p.Name(), err)
		}
	}
}

// servedPolicy is a policy whose learned state saves and loads.
type servedPolicy interface {
	Policy
	Snapshot() State
	Load(State) error
}

// TestSnapshotRestoreRoundTrip: every snapshot-capable policy survives
// snapshot → JSON → Load into a policy built as the state describes,
// with its learned per-arm models intact (byte-for-byte equal
// re-snapshot) and identical predictions.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	// build constructs each policy untrained; it runs twice, once for
	// the policy that learns and once for the one that loads its state.
	build := func() map[string]servedPolicy {
		out := map[string]servedPolicy{}
		if p, err := NewFixedEpsilonGreedy(3, 1, 0.1, 7); err == nil {
			out["eps"] = p
		}
		if p, err := NewGreedy(3, 1); err == nil {
			out["greedy"] = p
		}
		if p, err := NewRandom(3, 1, 5); err == nil {
			out["random"] = p
		}
		if p, err := NewLinUCB(3, 1, 1.5); err == nil {
			out["linucb"] = p
		}
		if p, err := NewLinTS(3, 1, 0.5, 11); err == nil {
			out["lints"] = p
		}
		if p, err := NewSoftmax(3, 1, 2, 13); err == nil {
			out["softmax"] = p
		}
		if len(out) != 6 {
			t.Fatalf("built %d policies, want 6", len(out))
		}
		return out
	}
	fresh := build()
	for label, p := range build() {
		trainPolicy(t, p, 60)
		blob, err := json.Marshal(p.Snapshot())
		if err != nil {
			t.Fatalf("%s marshal: %v", label, err)
		}
		var back State
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("%s unmarshal: %v", label, err)
		}
		restored := fresh[label]
		if err := restored.Load(back); err != nil {
			t.Fatalf("%s load: %v", label, err)
		}
		// Learned state is byte-for-byte identical when re-snapshotted.
		blob2, err := json.Marshal(restored.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != string(blob2) {
			t.Fatalf("%s learned state drifted across restore:\n  %s\n  %s", label, blob, blob2)
		}
		// Predictions (where the policy has models) match exactly.
		if lp, ok := p.(*Linear); ok {
			want, err := lp.PredictAllInto([]float64{42}, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.(*Linear).PredictAllInto([]float64{42}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Abs(want[i]-got[i]) > 1e-12 {
					t.Fatalf("%s predictions drifted: %v vs %v", label, want, got)
				}
			}
		}
	}
}

// TestRestoreErrors: Load refuses a state that describes another
// policy, and leaves the policy it refused untrained.
func TestRestoreErrors(t *testing.T) {
	p, err := NewLinUCB(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	trainPolicy(t, p, 30)
	saved, err := json.Marshal(p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*State){
		"type":          func(s *State) { s.Type = TypeGreedy },
		"unknown type":  func(s *State) { s.Type = "nonsense" },
		"arm count":     func(s *State) { s.NumArms = 2 },
		"estimators":    func(s *State) { s.Arms = s.Arms[:2] },
		"dim":           func(s *State) { s.Dim = 2 },
		"parameter":     func(s *State) { s.Beta = 2 },
		"seed":          func(s *State) { s.Seed = 7 },
		"forgetting":    func(s *State) { s.Forget = 0.9 },
		"missing model": func(s *State) { s.Arms[1] = nil },
	}
	for name, corrupt := range cases {
		var s State
		if err := json.Unmarshal(saved, &s); err != nil {
			t.Fatal(err)
		}
		corrupt(&s)
		fresh, err := NewLinUCB(3, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Load(s); err == nil {
			t.Fatalf("%s: contradicting state loaded", name)
		}
		preds, err := fresh.PredictAllInto([]float64{5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for arm, pr := range preds {
			if pr != 0 {
				t.Fatalf("%s: refused state trained arm %d", name, arm)
			}
		}
	}
	r, err := NewRandom(3, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Snapshot()
	st.NumArms = 4
	if err := r.Load(st); err == nil {
		t.Fatal("random: arm mismatch accepted")
	}
}

// TestArmModelAndPredictAll: the serving-facing surface agrees with the
// underlying estimators.
func TestArmModelAndPredictAll(t *testing.T) {
	p, err := NewLinUCB(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	trainPolicy(t, p, 90)
	x := []float64{25}
	preds, err := p.PredictAllInto(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	for arm := 0; arm < 3; arm++ {
		m, err := p.ArmModel(arm)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Predict(x); math.Abs(got-preds[arm]) > 1e-9 {
			t.Fatalf("arm %d model predicts %v, PredictAllInto says %v", arm, got, preds[arm])
		}
	}
	if _, err := p.ArmModel(9); !errors.Is(err, ErrArm) {
		t.Fatalf("out-of-range arm: %v", err)
	}
}

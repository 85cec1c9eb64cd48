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

// TestSnapshotRestoreRoundTrip: every snapshot-capable policy survives
// snapshot → JSON → restore with its learned per-arm models intact
// (byte-for-byte equal re-snapshot) and identical predictions.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	builders := map[string]Policy{}
	if p, err := NewFixedEpsilonGreedy(3, 1, 0.1, 7); err == nil {
		builders["eps"] = p
	}
	if p, err := NewGreedy(3, 1); err == nil {
		builders["greedy"] = p
	}
	if p, err := NewRandom(3, 1, 5); err == nil {
		builders["random"] = p
	}
	if p, err := NewLinUCB(3, 1, 1.5); err == nil {
		builders["linucb"] = p
	}
	if p, err := NewLinTS(3, 1, 0.5, 11); err == nil {
		builders["lints"] = p
	}
	if p, err := NewSoftmax(3, 1, 2, 13); err == nil {
		builders["softmax"] = p
	}
	if len(builders) != 6 {
		t.Fatalf("built %d policies, want 6", len(builders))
	}

	for label, p := range builders {
		trainPolicy(t, p, 60)
		st, err := p.(Snapshotter).Snapshot()
		if err != nil {
			t.Fatalf("%s snapshot: %v", label, err)
		}
		blob, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("%s marshal: %v", label, err)
		}
		var back State
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("%s unmarshal: %v", label, err)
		}
		restored, err := Restore(back)
		if err != nil {
			t.Fatalf("%s restore: %v", label, err)
		}
		if restored.Name() != p.Name() {
			t.Fatalf("%s name drifted: %q vs %q", label, restored.Name(), p.Name())
		}
		// Learned state is byte-for-byte identical when re-snapshotted.
		st2, err := restored.(Snapshotter).Snapshot()
		if err != nil {
			t.Fatalf("%s re-snapshot: %v", label, err)
		}
		blob2, err := json.Marshal(st2)
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

func TestRestoreErrors(t *testing.T) {
	if _, err := Restore(State{Type: "nonsense"}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("unknown type: %v", err)
	}
	// Arm-count mismatch is rejected.
	p, err := NewLinUCB(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st.NumArms = 2
	if _, err := Restore(st); err == nil {
		t.Fatal("arm mismatch accepted")
	}
	// Oracle cannot snapshot.
	o, err := NewOracle(3, 1, func(arm int, x []float64) float64 { return float64(arm) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Snapshot(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("oracle snapshot: %v", err)
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

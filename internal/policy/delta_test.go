package policy

import (
	"errors"
	"math"
	"testing"

	"banditware/internal/hardware"
	"banditware/internal/regress"
)

func deltaTestHW() hardware.Set {
	return hardware.Set{
		{Name: "a", CPUs: 2, MemoryGB: 4},
		{Name: "b", CPUs: 8, MemoryGB: 16},
	}
}

// mergeablePolicies builds one instance of every Linear selection rule.
func mergeablePolicies(t *testing.T) map[string]*Linear {
	t.Helper()
	hw := deltaTestHW()
	const dim = 2
	eg, err := NewFixedEpsilonGreedy(len(hw), dim, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := NewGreedy(len(hw), dim)
	if err != nil {
		t.Fatal(err)
	}
	ucb, err := NewLinUCB(len(hw), dim, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewLinTS(len(hw), dim, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewSoftmax(len(hw), dim, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Linear{
		"eps-greedy": eg, "greedy": gr, "linucb": ucb,
		"lints": ts, "softmax": sm,
	}
}

// TestPolicyDeltaMergeReproducesSingleLearner checks, for every
// linear-model policy, that merging K sharded deltas into a fresh
// policy reproduces the model a single policy learns from the full
// trace — including the exploit decision on held-out contexts.
func TestPolicyDeltaMergeReproducesSingleLearner(t *testing.T) {
	const dim, n, shards, numArms = 2, 240, 3, 2
	truth := func(arm int, x []float64) float64 {
		if arm == 0 {
			return 2*x[0] + x[1] + 1
		}
		return x[0] + 3*x[1] + 2
	}
	for name := range mergeablePolicies(t) {
		t.Run(name, func(t *testing.T) {
			all := mergeablePolicies(t)
			single := all[name]
			fleetAll := []map[string]*Linear{mergeablePolicies(t), mergeablePolicies(t), mergeablePolicies(t)}
			mergedAll := mergeablePolicies(t)
			merged := mergedAll[name]

			for i := 0; i < n; i++ {
				x := []float64{float64(i%11) / 5, float64(i%7) / 3}
				arm := i % numArms
				y := truth(arm, x)
				if err := single.Update(arm, x, y); err != nil {
					t.Fatal(err)
				}
				if err := fleetAll[i%shards][name].Update(arm, x, y); err != nil {
					t.Fatal(err)
				}
			}

			dst := merged
			for _, shard := range fleetAll {
				src := shard[name]
				for a := 0; a < numArms; a++ {
					cur, err := src.ArmSufficient(a)
					if err != nil {
						t.Fatal(err)
					}
					prior, err := src.ArmPrior(a)
					if err != nil {
						t.Fatal(err)
					}
					delta, err := cur.Sub(prior)
					if err != nil {
						t.Fatal(err)
					}
					if err := dst.MergeArmDelta(a, delta); err != nil {
						t.Fatal(err)
					}
				}
			}

			for a := 0; a < numArms; a++ {
				sModel, err1 := single.ArmModel(a)
				mModel, err2 := merged.ArmModel(a)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				for j := range sModel.Weights {
					if d := math.Abs(sModel.Weights[j] - mModel.Weights[j]); d > 1e-8 {
						t.Fatalf("arm %d w[%d] = %g, want %g", a, j, mModel.Weights[j], sModel.Weights[j])
					}
				}
				if d := math.Abs(sModel.Bias - mModel.Bias); d > 1e-8 {
					t.Fatalf("arm %d bias = %g, want %g", a, mModel.Bias, sModel.Bias)
				}
			}
			for i := 0; i < 40; i++ {
				x := []float64{float64(i) / 17, float64(i%6) / 3}
				sa, err1 := single.Exploit(x)
				ma, err2 := merged.Exploit(x)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if sa != ma {
					t.Fatalf("exploit(%v) = %d, want %d", x, ma, sa)
				}
			}
		})
	}
}

func TestPolicyDeltaAdaptiveModesRejected(t *testing.T) {
	mk := func() *Linear {
		p, err := NewLinUCB(2, 2, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	windowed := mk()
	if err := windowed.SetAdaptation(1, 16); err != nil {
		t.Fatal(err)
	}
	forgetting := mk()
	if err := forgetting.SetAdaptation(0.95, 0); err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Linear{"window": windowed, "forgetting": forgetting} {
		if _, err := p.ArmSufficient(0); !errors.Is(err, regress.ErrNotMergeable) {
			t.Fatalf("%s ArmSufficient: %v, want ErrNotMergeable", name, err)
		}
		if err := p.MergeArmDelta(0, regress.Sufficient{Dim: 2}); !errors.Is(err, regress.ErrNotMergeable) {
			t.Fatalf("%s MergeArmDelta: %v, want ErrNotMergeable", name, err)
		}
	}
	if _, err := mk().ArmSufficient(5); !errors.Is(err, ErrArm) {
		t.Fatalf("out-of-range arm: %v", err)
	}
}

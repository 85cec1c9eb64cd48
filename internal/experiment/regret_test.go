package experiment

import (
	"bytes"
	"strings"
	"testing"

	"banditware/internal/core"
	"banditware/internal/policy"
	"banditware/internal/workloads"
)

func regretPolicies(d *workloads.Dataset) map[string]PolicyFactory {
	return map[string]PolicyFactory{
		"oracle": func(n, dim int, seed uint64) (policy.Policy, error) {
			return policy.NewOracle(n, dim, d.Truth)
		},
		"random": func(n, dim int, seed uint64) (policy.Policy, error) {
			return policy.NewRandom(n, dim, seed)
		},
		"algorithm1": func(n, dim int, seed uint64) (policy.Policy, error) {
			return policy.NewDecayingEpsilonGreedy(d.Hardware, dim, core.Options{Seed: seed})
		},
	}
}

func TestRunRegretOrdering(t *testing.T) {
	d, err := workloads.GenerateCycles(workloads.CyclesOptions{Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	curves, err := RunRegret(RegretConfig{
		Dataset:  d,
		NRounds:  150,
		NSim:     4,
		Seed:     61,
		Policies: regretPolicies(d),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("curves = %d, want 3", len(curves))
	}
	byName := map[string]RegretCurve{}
	for _, c := range curves {
		byName[c.Policy] = c
		// Cumulative regret is non-decreasing.
		for r := 1; r < len(c.Cumulative); r++ {
			if c.Cumulative[r] < c.Cumulative[r-1]-1e-9 {
				t.Fatalf("%s: cumulative regret decreased at round %d", c.Policy, r)
			}
		}
	}
	last := len(byName["oracle"].Cumulative) - 1
	if byName["oracle"].Cumulative[last] != 0 {
		t.Fatalf("oracle final regret = %v, want 0", byName["oracle"].Cumulative[last])
	}
	if byName["algorithm1"].Cumulative[last] >= byName["random"].Cumulative[last] {
		t.Fatalf("algorithm1 regret %v not below random %v",
			byName["algorithm1"].Cumulative[last], byName["random"].Cumulative[last])
	}
	// Algorithm 1's regret growth should slow down: the second half must
	// add less regret than the first half (learning).
	mid := len(byName["algorithm1"].Cumulative) / 2
	a1 := byName["algorithm1"].Cumulative
	firstHalf := a1[mid-1]
	secondHalf := a1[last] - a1[mid-1]
	if secondHalf >= firstHalf {
		t.Fatalf("algorithm1 regret did not flatten: halves %v vs %v", firstHalf, secondHalf)
	}
}

func TestRunRegretValidation(t *testing.T) {
	d, err := workloads.GenerateCycles(workloads.CyclesOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunRegret(RegretConfig{Dataset: d, NRounds: 10, NSim: 1}); err == nil {
		t.Fatal("no policies should fail")
	}
	if _, err := RunRegret(RegretConfig{Dataset: nil, NRounds: 10, NSim: 1,
		Policies: regretPolicies(d)}); err == nil {
		t.Fatal("nil dataset should fail")
	}
}

func TestWriteRegretCSV(t *testing.T) {
	curves := []RegretCurve{{
		Policy:     "x",
		Cumulative: []float64{1, 2},
		Std:        []float64{0.1, 0.2},
	}}
	var buf bytes.Buffer
	if err := WriteRegretCSV(&buf, curves); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3", len(lines))
	}
}

package reward

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"banditware/internal/hardware"
)

func bp(v bool) *bool { return &v }

// TestGoldenRewardValues pins the exact value of every built-in reward
// function on fixed inputs, so a silent change to any scoring rule
// fails loudly here.
func TestGoldenRewardValues(t *testing.T) {
	cheap := hardware.Config{Name: "cheap", CPUs: 2, MemoryGB: 16}      // Cost = 2 + 4 = 6
	big := hardware.Config{Name: "big", CPUs: 16, MemoryGB: 64}         // Cost = 16 + 16 = 32
	gpu := hardware.Config{Name: "gpu", CPUs: 8, MemoryGB: 32, GPUs: 1} // Cost = 8 + 8 + 10 = 26

	cases := []struct {
		name string
		spec Spec
		o    Outcome
		hw   hardware.Config
		want float64
	}{
		{"runtime/plain", Spec{}, Outcome{Runtime: 42.5}, big, 42.5},
		{"runtime/ignores-failure", Spec{Type: TypeRuntime}, Outcome{Runtime: 7, Success: bp(false)}, cheap, 7},

		{"cost_weighted/default-lambda", Spec{Type: TypeCostWeighted}, Outcome{Runtime: 10}, cheap, 10 + 1*6},
		{"cost_weighted/lambda", Spec{Type: TypeCostWeighted, Lambda: 0.5}, Outcome{Runtime: 10}, big, 10 + 0.5*32},
		{"cost_weighted/gpu", Spec{Type: "cost", Lambda: 2}, Outcome{Runtime: 1}, gpu, 1 + 2*26},

		{"deadline/hit", Spec{Type: TypeDeadline, DeadlineSeconds: 60}, Outcome{Runtime: 59}, cheap, 59},
		{"deadline/exact", Spec{Type: TypeDeadline, DeadlineSeconds: 60}, Outcome{Runtime: 60}, cheap, 60},
		{"deadline/miss-default-penalty", Spec{Type: TypeDeadline, DeadlineSeconds: 60}, Outcome{Runtime: 65}, cheap, 65 + 10*5},
		{"deadline/miss-penalty", Spec{Type: "slo", DeadlineSeconds: 100, Penalty: 3}, Outcome{Runtime: 110}, big, 110 + 3*10},

		{"queue_weighted/default-lambda", Spec{Type: TypeQueueWeighted}, Outcome{Runtime: 10, Metrics: map[string]float64{MetricQueueSeconds: 3}}, cheap, 10 + 1*3},
		{"queue_weighted/lambda", Spec{Type: TypeQueueWeighted, Lambda: 0.5}, Outcome{Runtime: 10, Metrics: map[string]float64{MetricQueueSeconds: 4}}, big, 10 + 0.5*4},
		{"queue_weighted/no-metric", Spec{Type: "queue"}, Outcome{Runtime: 7}, cheap, 7},
		{"queue_weighted/alias-latency", Spec{Type: "latency", Lambda: 2}, Outcome{Runtime: 1, Metrics: map[string]float64{MetricQueueSeconds: 0.25}}, gpu, 1 + 2*0.25},

		{"failure_penalty/success", Spec{Type: TypeFailurePenalty, Penalty: 500}, Outcome{Runtime: 12, Success: bp(true)}, cheap, 12},
		{"failure_penalty/unreported", Spec{Type: TypeFailurePenalty, Penalty: 500}, Outcome{Runtime: 12}, cheap, 12},
		{"failure_penalty/failed", Spec{Type: "failure", Penalty: 500}, Outcome{Runtime: 12, Success: bp(false)}, cheap, 512},
		{"failure_penalty/default", Spec{Type: TypeFailurePenalty}, Outcome{Runtime: 3, Success: bp(false)}, cheap, 1003},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fn, _, err := Compile(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := fn(tc.o, tc.hw); math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("score = %g, want %g", got, tc.want)
			}
		})
	}
}

func TestCompileCanonicalises(t *testing.T) {
	cases := []struct {
		in   Spec
		want Spec
	}{
		{Spec{}, Spec{Type: TypeRuntime}},
		{Spec{Type: "RUNTIME"}, Spec{Type: TypeRuntime}},
		{Spec{Type: "cost"}, Spec{Type: TypeCostWeighted, Lambda: 1}},
		{Spec{Type: TypeCostWeighted, Lambda: 0.25}, Spec{Type: TypeCostWeighted, Lambda: 0.25}},
		{Spec{Type: "slo", DeadlineSeconds: 30}, Spec{Type: TypeDeadline, DeadlineSeconds: 30, Penalty: 10}},
		{Spec{Type: "failure"}, Spec{Type: TypeFailurePenalty, Penalty: 1000}},
		{Spec{Type: "queue"}, Spec{Type: TypeQueueWeighted, Lambda: 1}},
		{Spec{Type: "latency", Lambda: 0.5}, Spec{Type: TypeQueueWeighted, Lambda: 0.5}},
	}
	for _, tc := range cases {
		_, got, err := Compile(tc.in)
		if err != nil {
			t.Fatalf("Compile(%+v): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("Compile(%+v) canonical = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	if !(Spec{}).IsDefault() || !(Spec{Type: "runtime"}).IsDefault() {
		t.Fatal("runtime specs should be default")
	}
	if (Spec{Type: TypeCostWeighted}).IsDefault() {
		t.Fatal("cost_weighted is not default")
	}
}

func TestCompileRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Type: "fastest"},
		{Type: TypeDeadline},                                     // missing deadline
		{Type: TypeDeadline, DeadlineSeconds: -5},                // negative deadline
		{Type: TypeDeadline, DeadlineSeconds: math.Inf(1)},       // non-finite
		{Type: TypeCostWeighted, Lambda: math.NaN()},             // non-finite λ
		{Type: TypeCostWeighted, Lambda: -1},                     // negative λ
		{Type: TypeFailurePenalty, Penalty: -3},                  // negative penalty
		{Type: TypeQueueWeighted, Lambda: math.NaN()},            // non-finite λ
		{Type: TypeQueueWeighted, Lambda: -2},                    // negative λ
		{Type: TypeDeadline, DeadlineSeconds: 10, Penalty: -0.5}, // negative penalty
	}
	for _, spec := range bad {
		if _, _, err := Compile(spec); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("Compile(%+v) = %v, want ErrBadSpec", spec, err)
		}
	}
}

func TestOutcomeValidate(t *testing.T) {
	good := []Outcome{
		{Runtime: 0},
		{Runtime: 12.5, Success: bp(false)},
		{Runtime: 1, Metrics: map[string]float64{MetricMemoryGB: 3.5, MetricCostUSD: 0.02}},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v", o, err)
		}
	}
	bad := []Outcome{
		{Runtime: -5},
		{Runtime: math.NaN()},
		{Runtime: math.Inf(1)},
		{Runtime: 1, Metrics: map[string]float64{"memoryGB": 1}},             // unknown name
		{Runtime: 1, Metrics: map[string]float64{MetricEnergyJoules: -2}},    // negative
		{Runtime: 1, Metrics: map[string]float64{MetricCostUSD: math.NaN()}}, // non-finite
	}
	for _, o := range bad {
		if err := o.Validate(); !errors.Is(err, ErrBadOutcome) {
			t.Fatalf("Validate(%+v) = %v, want ErrBadOutcome", o, err)
		}
	}
}

// TestOutcomeValidateNamesSmallestBadMetric: whatever order the map
// ranges in, the error names the lexicographically smallest bad metric
// with that metric's reason, and a valid outcome allocates nothing.
func TestOutcomeValidateNamesSmallestBadMetric(t *testing.T) {
	cases := []struct {
		metrics map[string]float64
		want    string
	}{
		{map[string]float64{MetricQueueSeconds: -1, "zz": 1, MetricCostUSD: math.Inf(1), MetricMemoryGB: 1},
			`non-finite metric "cost_usd"`},
		{map[string]float64{MetricQueueSeconds: -1, MetricMemoryGB: 2, MetricEnergyJoules: 3},
			`negative metric "queue_seconds" = -1`},
		{map[string]float64{"b": -1, "a": math.NaN(), MetricCostUSD: -1},
			`unknown metric "a"`},
	}
	for _, c := range cases {
		for i := 0; i < 50; i++ {
			err := Outcome{Runtime: 1, Metrics: c.metrics}.Validate()
			if !errors.Is(err, ErrBadOutcome) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate(%v) = %v, want ErrBadOutcome naming %s", c.metrics, err, c.want)
			}
		}
	}
	good := Outcome{Runtime: 1, Metrics: map[string]float64{MetricMemoryGB: 3.5, MetricCostUSD: 0.02, MetricQueueSeconds: 4}}
	if n := testing.AllocsPerRun(100, func() { _ = good.Validate() }); n != 0 {
		t.Fatalf("valid outcome: %v allocs/op, want 0", n)
	}
}

func TestSpecJSONForms(t *testing.T) {
	var s Spec
	if err := json.Unmarshal([]byte(`"cost_weighted"`), &s); err != nil {
		t.Fatal(err)
	}
	if s.Type != TypeCostWeighted {
		t.Fatalf("bare string form: %+v", s)
	}
	if err := json.Unmarshal([]byte(`{"type": "deadline", "deadline_seconds": 300, "penalty": 2}`), &s); err != nil {
		t.Fatal(err)
	}
	if s.Type != TypeDeadline || s.DeadlineSeconds != 300 || s.Penalty != 2 {
		t.Fatalf("object form: %+v", s)
	}
	if err := json.Unmarshal([]byte(`{"type": "deadline", "slack": 1}`), &s); err == nil {
		t.Fatal("unknown spec field accepted")
	}
}

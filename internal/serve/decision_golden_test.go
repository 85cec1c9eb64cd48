package serve

// Seeded decision goldens: one stream per policy type driven through
// 2 000 RecommendInto → ObserveSeq cycles on a fixed seed. The chosen
// arm sequence and the stream's SaveStream bytes are checked in under
// testdata/decisions/, so any change to a policy's selection rule, its
// RNG draw order, its model arithmetic or its persisted state fields
// fails here — the guard for refactors that must be behaviour-neutral.
//
// Regenerate with:
//
//	UPDATE_DECISION_GOLDENS=1 go test -run TestSeededDecisionGoldens ./internal/serve/
//
// and review the diff — a changed sequence is a behaviour change.

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"banditware/internal/core"
	"banditware/internal/rng"
)

const (
	decisionGoldenDir    = "testdata/decisions"
	decisionGoldenCycles = 2000
)

// decisionGoldenSpecs lists every servable policy type with a fixed,
// non-default parameterisation.
var decisionGoldenSpecs = []PolicySpec{
	{Type: PolicyAlgorithm1, Seed: 5},
	{Type: PolicyLinUCB, Beta: 1.5},
	{Type: PolicyLinTS, PosteriorScale: 0.8, Seed: 11},
	{Type: PolicyEpsGreedy, Epsilon: 0.2, Seed: 13},
	{Type: PolicyGreedy},
	{Type: PolicySoftmax, Temperature: 4, Seed: 17},
	{Type: PolicyRandom, Seed: 19},
}

// runSeededDecisions drives one stream under spec and returns its arm
// sequence (one digit per decision, 100 per line) and SaveStream bytes.
func runSeededDecisions(t *testing.T, spec PolicySpec) (arms, state []byte) {
	t.Helper()
	clock := &fakeClock{t: time.Unix(7000, 0)}
	s := NewService(ServiceOptions{Now: clock.now})
	if err := s.CreateStream("golden", StreamConfig{
		Hardware: testHW(), Dim: 2, Options: core.Options{Seed: 3}, Policy: spec,
	}); err != nil {
		t.Fatal(err)
	}
	// Ground truth: per-arm linear runtimes with seeded Gaussian noise,
	// so the arms cross over within the context range.
	base := []float64{40, 25, 10}
	slope := []float64{0.5, 1.5, 3}
	noise := rng.New(99)
	ctx := rng.New(101)
	var tk Ticket
	x := make([]float64, 2)
	for i := 0; i < decisionGoldenCycles; i++ {
		x[0] = ctx.Uniform(1, 20)
		x[1] = ctx.Uniform(0, 4)
		if err := s.RecommendInto("golden", x, &tk); err != nil {
			t.Fatal(err)
		}
		arms = append(arms, byte('0'+tk.Arm))
		if (i+1)%100 == 0 {
			arms = append(arms, '\n')
		}
		runtime := base[tk.Arm] + slope[tk.Arm]*x[0] + 2*x[1] + noise.Normal(0, 2)
		if runtime < 0.5 {
			runtime = 0.5
		}
		if err := s.ObserveSeq("golden", tk.Seq, runtime); err != nil {
			t.Fatal(err)
		}
		clock.advance(time.Second)
	}
	var buf bytes.Buffer
	if err := s.SaveStream("golden", &buf); err != nil {
		t.Fatal(err)
	}
	return arms, buf.Bytes()
}

func TestSeededDecisionGoldens(t *testing.T) {
	update := os.Getenv("UPDATE_DECISION_GOLDENS") != ""
	for _, spec := range decisionGoldenSpecs {
		spec := spec
		t.Run(spec.Type, func(t *testing.T) {
			arms, state := runSeededDecisions(t, spec)
			armsPath := filepath.Join(decisionGoldenDir, spec.Type+".arms")
			statePath := filepath.Join(decisionGoldenDir, spec.Type+".state.json")
			if update {
				if err := os.MkdirAll(decisionGoldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(armsPath, arms, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(statePath, state, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantArms, err := os.ReadFile(armsPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(arms, wantArms) {
				t.Errorf("arm sequence diverges from %s at decision %s", armsPath, firstDecisionDiff(arms, wantArms))
			}
			wantState, err := os.ReadFile(statePath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(state, wantState) {
				t.Errorf("SaveStream bytes differ from %s (got %d bytes, want %d)", statePath, len(state), len(wantState))
			}
		})
	}
}

// firstDecisionDiff returns the index of the first decision (newlines
// skipped) where two recorded arm sequences differ.
func firstDecisionDiff(got, want []byte) string {
	n := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return strconv.Itoa(n)
		}
		if got[i] != '\n' {
			n++
		}
	}
	return strconv.Itoa(n) + " (length)"
}

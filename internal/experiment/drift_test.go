package experiment

import (
	"testing"

	"banditware/internal/stats"
	"banditware/internal/workloads"
)

func TestRunDriftRecovery(t *testing.T) {
	d, err := workloads.GenerateCycles(workloads.CyclesOptions{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDrift(DriftConfig{
		Dataset:          d,
		NRounds:          240,
		NSim:             4,
		Seed:             31,
		ForgettingFactor: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapRound != 120 {
		t.Fatalf("swap round = %d, want 120", res.SwapRound)
	}
	if len(res.Rounds) != 240 || len(res.AccStatic) != 240 || len(res.AccForgetting) != 240 {
		t.Fatal("ragged drift result")
	}
	// Both bandits learn before the swap.
	preStatic := stats.Mean(res.AccStatic[100:120])
	preForget := stats.Mean(res.AccForgetting[100:120])
	if preStatic < 0.5 || preForget < 0.5 {
		t.Fatalf("pre-swap accuracies %.2f/%.2f, want > 0.5", preStatic, preForget)
	}
	// Right after the swap both crash.
	crash := stats.Mean(res.AccForgetting[res.SwapRound : res.SwapRound+5])
	if crash > 0.6 {
		t.Fatalf("post-swap accuracy %.2f did not crash", crash)
	}
	// By the end, the forgetting bandit must have recovered materially
	// better than the static one, whose long memory anchors it to the
	// old world.
	endStatic := stats.Mean(res.AccStatic[220:])
	endForget := stats.Mean(res.AccForgetting[220:])
	if endForget <= endStatic {
		t.Fatalf("forgetting end accuracy %.2f not above static %.2f", endForget, endStatic)
	}
	if endForget < 0.4 {
		t.Fatalf("forgetting bandit failed to recover: %.2f", endForget)
	}
}

func TestRunDriftValidation(t *testing.T) {
	d, err := workloads.GenerateCycles(workloads.CyclesOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDrift(DriftConfig{Dataset: nil, NRounds: 10, NSim: 1}); err == nil {
		t.Fatal("nil dataset should fail")
	}
	if _, err := RunDrift(DriftConfig{Dataset: d, NRounds: 0, NSim: 1}); err == nil {
		t.Fatal("zero rounds should fail")
	}
}

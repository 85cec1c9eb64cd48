package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"banditware/internal/hardware"
)

func windowHW() hardware.Set {
	return hardware.Set{
		{Name: "H0", CPUs: 2, MemoryGB: 16},
		{Name: "H1", CPUs: 4, MemoryGB: 32},
	}
}

// TestWindowedBanditTracksRegimeChange: with a sliding window, an arm
// whose behaviour changes mid-run is re-learned from post-change data
// only — the pre-change observations leave the window entirely — while
// an infinite-memory bandit still averages the two regimes.
func TestWindowedBanditTracksRegimeChange(t *testing.T) {
	const window = 20
	windowed, err := New(windowHW(), 1, Options{ZeroEpsilon: true, WindowSize: window, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	static, err := New(windowHW(), 1, Options{ZeroEpsilon: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Regime 1: arm 0 runtime = 10 + 2x (200 observations), then
	// regime 2: arm 0 runtime = 100 + 5x (window-many observations).
	feed := func(b *Bandit, n int, f func(x float64) float64) {
		for i := 0; i < n; i++ {
			x := float64(i%10 + 1)
			if err := b.Observe(0, []float64{x}, f(x)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, b := range []*Bandit{windowed, static} {
		feed(b, 200, func(x float64) float64 { return 10 + 2*x })
		feed(b, window, func(x float64) float64 { return 100 + 5*x })
	}
	wp, err := windowed.PredictAll([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := static.PredictAll([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	want := 100 + 5*5.0
	if diff := wp[0] - want; diff < -1 || diff > 1 {
		t.Fatalf("windowed prediction %v, want ≈ %v", wp[0], want)
	}
	// The static bandit still predicts near the blended average.
	if sp[0] > 60 {
		t.Fatalf("static prediction %v unexpectedly adapted (want ≪ %v)", sp[0], want)
	}
}

// TestWindowedBanditCapsStoredObservations: the per-arm buffer never
// exceeds the window.
func TestWindowedBanditCapsStoredObservations(t *testing.T) {
	b, err := New(windowHW(), 1, Options{ZeroEpsilon: true, WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := b.Observe(i%2, []float64{float64(i)}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for arm := 0; arm < 2; arm++ {
		n, err := b.ArmObservations(arm)
		if err != nil {
			t.Fatal(err)
		}
		if n != 8 {
			t.Fatalf("arm %d retains %d observations, want 8", arm, n)
		}
	}
}

// TestWindowedStateRoundTrip: the window buffers persist through
// SaveState/LoadState, so a restored bandit keeps sliding correctly.
func TestWindowedStateRoundTrip(t *testing.T) {
	b, err := New(windowHW(), 1, Options{ZeroEpsilon: true, WindowSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := b.Observe(0, []float64{float64(i)}, float64(3*i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := b.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Both continue with identical updates and must agree exactly.
	for i := 12; i < 20; i++ {
		x, y := []float64{float64(i)}, float64(3*i+1)
		if err := b.Observe(0, x, y); err != nil {
			t.Fatal(err)
		}
		if err := back.Observe(0, x, y); err != nil {
			t.Fatal(err)
		}
	}
	p1, _ := b.PredictAll([]float64{7})
	p2, _ := back.PredictAll([]float64{7})
	if p1[0] != p2[0] {
		t.Fatalf("restored windowed bandit diverged: %v vs %v", p1[0], p2[0])
	}
	n, _ := back.ArmObservations(0)
	if n != 5 {
		t.Fatalf("restored window holds %d observations, want 5", n)
	}
}

// TestWindowOptionValidation: bad windows and conflicting modes are
// rejected.
func TestWindowOptionValidation(t *testing.T) {
	if _, err := New(windowHW(), 1, Options{WindowSize: -1}); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := New(windowHW(), 1, Options{WindowSize: 8, ForgettingFactor: 0.9}); err == nil {
		t.Fatal("window + forgetting accepted")
	}
	if _, err := New(windowHW(), 1, Options{WindowSize: 8, BatchRefit: true}); err == nil {
		t.Fatal("window + batch refit accepted")
	}
}

// TestResetArm: resetting one arm restores its prior model and leaves
// the others (and ε, round) untouched.
func TestResetArm(t *testing.T) {
	b, err := New(windowHW(), 1, Options{ZeroEpsilon: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		x := []float64{float64(i%10 + 1)}
		if err := b.Observe(0, x, 10+2*x[0]); err != nil {
			t.Fatal(err)
		}
		if err := b.Observe(1, x, 5+x[0]); err != nil {
			t.Fatal(err)
		}
	}
	round := b.Round()
	if err := b.ResetArm(0); err != nil {
		t.Fatal(err)
	}
	preds, err := b.PredictAll([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] != 0 {
		t.Fatalf("reset arm still predicts %v, want 0", preds[0])
	}
	if diff := preds[1] - 10; diff < -0.5 || diff > 0.5 {
		t.Fatalf("untouched arm prediction %v, want ≈ 10", preds[1])
	}
	if b.Round() != round {
		t.Fatalf("round changed across reset: %d vs %d", b.Round(), round)
	}
	if n, _ := b.ArmObservations(0); n != 0 {
		t.Fatalf("reset arm reports %d observations", n)
	}
	if err := b.ResetArm(5); err == nil {
		t.Fatal("out-of-range reset accepted")
	}
}

// TestWindowedRejectedObservationDoesNotPoisonArm: a non-finite
// observation is rejected without entering the window buffer, so
// subsequent valid observations (and snapshots) are unaffected. Before
// the window update validated up front, the rejected features were buffered
// first and every later rebuild of the arm failed forever.
func TestWindowedRejectedObservationDoesNotPoisonArm(t *testing.T) {
	b, err := New(windowHW(), 1, Options{ZeroEpsilon: true, WindowSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Observe(0, []float64{1}, 10); err != nil {
		t.Fatal(err)
	}
	if err := b.Observe(0, []float64{math.Inf(1)}, 5); err == nil {
		t.Fatal("non-finite features accepted")
	}
	if err := b.Observe(0, []float64{2}, math.NaN()); err == nil {
		t.Fatal("non-finite runtime accepted")
	}
	for i := 0; i < 6; i++ {
		if err := b.Observe(0, []float64{float64(i + 2)}, float64(10+3*i)); err != nil {
			t.Fatalf("valid observation after rejection: %v", err)
		}
	}
	if n, _ := b.ArmObservations(0); n != 4 {
		t.Fatalf("window holds %d observations, want 4", n)
	}
	var buf bytes.Buffer
	if err := b.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(&buf); err != nil {
		t.Fatalf("snapshot after rejected observation: %v", err)
	}
}

// TestLoadStateRejectsCorruptWindow: a windowed state whose buffers do
// not fit the bandit's shape is rejected at load. Loading used to accept
// an arm with fewer feature rows than runtimes, and its next Observe
// panicked rebuilding the window.
func TestLoadStateRejectsCorruptWindow(t *testing.T) {
	b, err := New(windowHW(), 1, Options{ZeroEpsilon: true, WindowSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Observe(0, []float64{float64(i + 1)}, float64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := b.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(arm map[string]any){
		"xs/ys mismatch": func(arm map[string]any) { arm["xs"] = arm["xs"].([]any)[:1] },
		"overfull window": func(arm map[string]any) {
			arm["xs"] = append(arm["xs"].([]any), []any{1.0}, []any{2.0})
			arm["ys"] = append(arm["ys"].([]any), 1.0, 2.0)
		},
		"feature dim": func(arm map[string]any) { arm["xs"].([]any)[0] = []any{1.0, 2.0} },
	}
	for name, corrupt := range cases {
		var st map[string]any
		if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		corrupt(st["arms"].([]any)[0].(map[string]any))
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadState(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt window state accepted", name)
		}
	}
}

package policy

import (
	"encoding/json"
	"testing"
)

// feedRegimes trains one arm through two regimes: y = 10 + 2x for n1
// rounds, then y = 100 + 5x for n2 rounds.
func feedRegimes(t *testing.T, p Policy, n1, n2 int) {
	t.Helper()
	for i := 0; i < n1; i++ {
		x := float64(i%10 + 1)
		if err := p.Update(0, []float64{x}, 10+2*x); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n2; i++ {
		x := float64(i%10 + 1)
		if err := p.Update(0, []float64{x}, 100+5*x); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdaptivePoliciesTrackRegimeChange: with forgetting or a window, a
// linear-model policy re-learns a changed arm; without adaptation it
// stays anchored to the blended history.
func TestAdaptivePoliciesTrackRegimeChange(t *testing.T) {
	const want = 100 + 5*5.0 // post-change truth at x=5
	mk := func() *Linear {
		p, err := NewGreedy(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	static := mk()
	forgetting := mk()
	if err := forgetting.SetAdaptation(0.9, 0); err != nil {
		t.Fatal(err)
	}
	windowed := mk()
	if err := windowed.SetAdaptation(1, 30); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Linear{static, forgetting, windowed} {
		feedRegimes(t, p, 300, 40)
	}
	for name, p := range map[string]*Linear{"forgetting": forgetting, "windowed": windowed} {
		preds, err := p.PredictAllInto([]float64{5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if diff := preds[0] - want; diff < -5 || diff > 5 {
			t.Fatalf("%s policy predicts %v, want ≈ %v", name, preds[0], want)
		}
	}
	preds, err := static.PredictAllInto([]float64{5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] > 60 {
		t.Fatalf("static policy predicts %v, unexpectedly adapted", preds[0])
	}
}

// TestSetAdaptationRules: bad parameters, conflicting modes, and
// post-training calls are rejected; Random has no models to adapt.
func TestSetAdaptationRules(t *testing.T) {
	p, err := NewLinUCB(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetAdaptation(0, 0); err == nil {
		t.Fatal("forget 0 accepted")
	}
	if err := p.SetAdaptation(1.5, 0); err == nil {
		t.Fatal("forget > 1 accepted")
	}
	if err := p.SetAdaptation(0.9, 10); err == nil {
		t.Fatal("forgetting + window accepted")
	}
	if err := p.SetAdaptation(1, -1); err == nil {
		t.Fatal("negative window accepted")
	}
	if err := p.Update(0, []float64{1}, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.SetAdaptation(0.9, 0); err == nil {
		t.Fatal("post-training adaptation accepted")
	}
	r, err := NewRandom(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := interface{}(r).(interface{ SetAdaptation(float64, int) error }); ok {
		t.Fatal("Random unexpectedly adapts")
	}
}

// TestWindowedPolicySnapshotRoundTrip: the window buffers survive
// Snapshot/Restore, so a restored policy keeps sliding identically.
func TestWindowedPolicySnapshotRoundTrip(t *testing.T) {
	p, err := NewGreedy(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetAdaptation(1, 6); err != nil {
		t.Fatal(err)
	}
	feedRegimes(t, p, 10, 4)
	st, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded State
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := Restore(decoded)
	if err != nil {
		t.Fatal(err)
	}
	// Continue both with identical updates; windowed eviction must agree.
	for i := 0; i < 10; i++ {
		x := float64(i%10 + 1)
		if err := p.Update(0, []float64{x}, 100+5*x); err != nil {
			t.Fatal(err)
		}
		if err := back.Update(0, []float64{x}, 100+5*x); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := p.PredictAllInto([]float64{7}, nil)
	b, _ := back.(*Linear).PredictAllInto([]float64{7}, nil)
	if a[0] != b[0] {
		t.Fatalf("restored windowed policy diverged: %v vs %v", a[0], b[0])
	}
}

// TestRestoreRejectsCorruptWindowState: mismatched buffer shapes fail
// loudly instead of silently mis-sliding.
func TestRestoreRejectsCorruptWindowState(t *testing.T) {
	p, err := NewGreedy(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetAdaptation(1, 4); err != nil {
		t.Fatal(err)
	}
	feedRegimes(t, p, 6, 0)
	st, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := json.Marshal(st)
	cases := map[string]func(*State){
		"buffer count":    func(s *State) { s.WindowXs = s.WindowXs[:1] },
		"xs/ys mismatch":  func(s *State) { s.WindowYs[0] = s.WindowYs[0][:1] },
		"overfull window": func(s *State) { s.Window = 2 },
		"feature dim":     func(s *State) { s.WindowXs[0][0] = []float64{1, 2} },
		"both modes":      func(s *State) { s.Forget = 0.9 },
	}
	for name, corrupt := range cases {
		var s State
		if err := json.Unmarshal(blob, &s); err != nil {
			t.Fatal(err)
		}
		corrupt(&s)
		if _, err := Restore(s); err == nil {
			t.Fatalf("%s corruption accepted", name)
		}
	}
}

// TestResetArmPolicy: resetting one arm clears only that arm.
func TestResetArmPolicy(t *testing.T) {
	p, err := NewGreedy(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		x := float64(i%10 + 1)
		if err := p.Update(0, []float64{x}, 10+2*x); err != nil {
			t.Fatal(err)
		}
		if err := p.Update(1, []float64{x}, 5+x); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.ResetArm(0); err != nil {
		t.Fatal(err)
	}
	preds, err := p.PredictAllInto([]float64{5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] != 0 {
		t.Fatalf("reset arm predicts %v, want 0", preds[0])
	}
	if diff := preds[1] - 10; diff < -0.5 || diff > 0.5 {
		t.Fatalf("untouched arm predicts %v, want ≈ 10", preds[1])
	}
	if err := p.ResetArm(9); err == nil {
		t.Fatal("out-of-range reset accepted")
	}
}

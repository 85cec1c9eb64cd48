package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"banditware/internal/hardware"
	"banditware/internal/rng"
)

func testHW() hardware.Set { return hardware.NDPDefault() }

func newTestBandit(t *testing.T, dim int, opts Options) *Bandit {
	t.Helper()
	b, err := New(testHW(), dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(hardware.Set{}, 1, Options{}); err == nil {
		t.Fatal("empty hardware should fail")
	}
	if _, err := New(testHW(), -1, Options{}); err == nil {
		t.Fatal("negative dim should fail")
	}
	if _, err := New(testHW(), 1, Options{Alpha: 1.5}); err == nil {
		t.Fatal("alpha > 1 should fail")
	}
	if _, err := New(testHW(), 1, Options{Epsilon0: 2}); err == nil {
		t.Fatal("epsilon0 > 1 should fail")
	}
	if _, err := New(testHW(), 1, Options{ToleranceRatio: -0.1}); err == nil {
		t.Fatal("negative tolerance ratio should fail")
	}
	if _, err := New(testHW(), 1, Options{ToleranceSeconds: -1}); err == nil {
		t.Fatal("negative tolerance seconds should fail")
	}
	if _, err := New(testHW(), 1, Options{MinEpsilon: 2}); err == nil {
		t.Fatal("min epsilon > 1 should fail")
	}
}

func TestDefaults(t *testing.T) {
	b := newTestBandit(t, 1, Options{})
	if b.Epsilon() != 1 {
		t.Fatalf("default epsilon = %v, want 1 (paper's ε₀)", b.Epsilon())
	}
	if b.NumArms() != 3 || b.Dim() != 1 || b.Round() != 0 {
		t.Fatal("bad initial state")
	}
	// Untrained arms predict 0 — the w=0, b=0 initialisation of line 2.
	preds, err := b.PredictAll([]float64{100})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range preds {
		if p != 0 {
			t.Fatalf("untrained prediction = %v, want 0", p)
		}
	}
}

func TestZeroEpsilonOption(t *testing.T) {
	b := newTestBandit(t, 1, Options{ZeroEpsilon: true})
	if b.Epsilon() != 0 {
		t.Fatalf("ZeroEpsilon bandit has ε = %v", b.Epsilon())
	}
	// Pure exploitation: identical features must always pick the same arm.
	d1, err := b.Recommend([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d, err := b.Recommend([]float64{1})
		if err != nil {
			t.Fatal(err)
		}
		if d.Explored || d.Arm != d1.Arm {
			t.Fatal("ZeroEpsilon bandit explored")
		}
	}
}

func TestEpsilonDecay(t *testing.T) {
	b := newTestBandit(t, 1, Options{Alpha: 0.9})
	for i := 0; i < 5; i++ {
		if err := b.Observe(0, []float64{1}, 10); err != nil {
			t.Fatal(err)
		}
	}
	want := math.Pow(0.9, 5)
	if math.Abs(b.Epsilon()-want) > 1e-12 {
		t.Fatalf("epsilon = %v, want %v", b.Epsilon(), want)
	}
	if b.Round() != 5 {
		t.Fatalf("round = %d, want 5", b.Round())
	}
}

func TestMinEpsilonFloor(t *testing.T) {
	b := newTestBandit(t, 1, Options{Alpha: 0.5, MinEpsilon: 0.1})
	for i := 0; i < 20; i++ {
		_ = b.Observe(0, []float64{1}, 10)
	}
	if b.Epsilon() != 0.1 {
		t.Fatalf("epsilon = %v, want floor 0.1", b.Epsilon())
	}
}

func TestObserveErrors(t *testing.T) {
	b := newTestBandit(t, 2, Options{})
	if err := b.Observe(-1, []float64{1, 2}, 1); err != ErrArm {
		t.Fatal("negative arm should be ErrArm")
	}
	if err := b.Observe(5, []float64{1, 2}, 1); err != ErrArm {
		t.Fatal("arm out of range should be ErrArm")
	}
	if err := b.Observe(0, []float64{1}, 1); err != ErrDim {
		t.Fatal("wrong dim should be ErrDim")
	}
	if err := b.Observe(0, []float64{1, 2}, math.NaN()); err != ErrBadValue {
		t.Fatal("NaN runtime should be ErrBadValue")
	}
	if b.Round() != 0 {
		t.Fatal("failed observes must not advance the round")
	}
}

func TestRecommendDimError(t *testing.T) {
	b := newTestBandit(t, 2, Options{})
	if _, err := b.Recommend([]float64{1}); err != ErrDim {
		t.Fatal("wrong dim should be ErrDim")
	}
	if _, err := b.PredictAll([]float64{1, 2, 3}); err != ErrDim {
		t.Fatal("wrong dim should be ErrDim")
	}
}

func TestModelAccessors(t *testing.T) {
	b := newTestBandit(t, 1, Options{})
	if _, err := b.Model(9); err != ErrArm {
		t.Fatal("Model out of range should be ErrArm")
	}
	if _, err := b.ArmObservations(-1); err != ErrArm {
		t.Fatal("ArmObservations out of range should be ErrArm")
	}
	_ = b.Observe(1, []float64{2}, 8)
	n, err := b.ArmObservations(1)
	if err != nil || n != 1 {
		t.Fatalf("ArmObservations = %d, %v", n, err)
	}
	m, err := b.Model(1)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the returned model must not affect the bandit.
	m.Weights[0] = 1e9
	preds, _ := b.PredictAll([]float64{2})
	if preds[1] > 1e6 {
		t.Fatal("Model returned shared storage")
	}
}

func TestLearnsLinearModels(t *testing.T) {
	// True models: runtime_i = slope_i·x + intercept_i, clearly separated.
	slopes := []float64{6, 3, 1}
	intercepts := []float64{10, 50, 200}
	b := newTestBandit(t, 1, Options{Seed: 42})
	r := rng.New(7)
	for round := 0; round < 400; round++ {
		x := []float64{r.Uniform(10, 100)}
		d, err := b.Recommend(x)
		if err != nil {
			t.Fatal(err)
		}
		rt := slopes[d.Arm]*x[0] + intercepts[d.Arm] + r.Normal(0, 1)
		if err := b.Observe(d.Arm, x, rt); err != nil {
			t.Fatal(err)
		}
	}
	for i := range slopes {
		m, err := b.Model(i)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.Weights[0]-slopes[i]) > 0.2 {
			t.Fatalf("arm %d slope = %v, want %v", i, m.Weights[0], slopes[i])
		}
		if math.Abs(m.Bias-intercepts[i]) > 10 {
			t.Fatalf("arm %d intercept = %v, want %v", i, m.Bias, intercepts[i])
		}
	}
	// After decay, recommendations should pick the true best arm. At x=10:
	// arm0=70, arm1=80, arm2=210 ⇒ arm 0. At x=100: 610/350/300 ⇒ arm 2.
	dLow, _ := b.Recommend([]float64{10})
	dHigh, _ := b.Recommend([]float64{100})
	if dLow.Explored || dHigh.Explored {
		t.Skip("rare residual exploration draw; behaviour covered below")
	}
	if dLow.Arm != 0 {
		t.Fatalf("at x=10 recommended arm %d, want 0", dLow.Arm)
	}
	if dHigh.Arm != 2 {
		t.Fatalf("at x=100 recommended arm %d, want 2", dHigh.Arm)
	}
}

func TestBatchRefitMatchesRLS(t *testing.T) {
	// The paper-literal batch refit and the RLS path must agree.
	mk := func(batch bool) *Bandit {
		b, err := New(testHW(), 1, Options{Seed: 5, BatchRefit: batch})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	online, batch := mk(false), mk(true)
	r := rng.New(11)
	for i := 0; i < 60; i++ {
		x := []float64{r.Uniform(0, 50)}
		armIdx := i % 3
		rt := 2*x[0] + 5 + r.Normal(0, 0.1)
		if err := online.Observe(armIdx, x, rt); err != nil {
			t.Fatal(err)
		}
		if err := batch.Observe(armIdx, x, rt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		mo, _ := online.Model(i)
		mb, _ := batch.Model(i)
		if math.Abs(mo.Weights[0]-mb.Weights[0]) > 1e-3 || math.Abs(mo.Bias-mb.Bias) > 1e-2 {
			t.Fatalf("arm %d: online %+v vs batch %+v", i, mo, mb)
		}
	}
}

func TestTolerantSelectExact(t *testing.T) {
	hw := testHW() // H0 cost 6, H1 cost 9, H2 cost 8
	// No tolerance: strict argmin.
	if got := TolerantSelect([]float64{30, 10, 20}, hw, 0, 0); got != 1 {
		t.Fatalf("strict argmin = %d, want 1", got)
	}
	// Seconds tolerance: H0 (cost 6) within 10+15 ⇒ most efficient wins.
	if got := TolerantSelect([]float64{22, 10, 20}, hw, 0, 15); got != 0 {
		t.Fatalf("tolerant pick = %d, want 0", got)
	}
	// Ratio tolerance: limit = 1.5·10 = 15; only H1 qualifies.
	if got := TolerantSelect([]float64{30, 10, 16}, hw, 0.5, 0); got != 1 {
		t.Fatalf("ratio pick = %d, want 1", got)
	}
	// Ratio tolerance admitting H2 (pred 14 ≤ 15): H2 cost 8 < H1 cost 9.
	if got := TolerantSelect([]float64{30, 10, 14}, hw, 0.5, 0); got != 2 {
		t.Fatalf("ratio pick = %d, want 2", got)
	}
}

func TestTolerantSelectNaN(t *testing.T) {
	hw := testHW()
	if got := TolerantSelect([]float64{math.NaN(), 5, 4}, hw, 0, 0); got != 2 {
		t.Fatalf("NaN handling pick = %d, want 2", got)
	}
	all := []float64{math.NaN(), math.Inf(1), math.NaN()}
	if got := TolerantSelect(all, hw, 0, 0); got != 0 {
		t.Fatalf("all-NaN pick = %d, want fallback 0", got)
	}
}

func TestTolerantSelectNegativePredictions(t *testing.T) {
	hw := testHW()
	// Negative fastest prediction with a ratio shrinks the envelope below
	// itself; the fastest arm must still be returned.
	got := TolerantSelect([]float64{-100, 50, 60}, hw, 0.5, 0)
	if got != 0 {
		t.Fatalf("negative-pred pick = %d, want 0", got)
	}
}

func TestTolerantSelectEnvelopeInvariant(t *testing.T) {
	// Property: the selected arm's prediction never exceeds
	// (1+tr)·min + ts when the envelope is non-degenerate, and the
	// selection is always a valid index.
	hw := hardware.MatMulDefault()
	check := func(seed uint64, trRaw, tsRaw uint8) bool {
		r := rng.New(seed)
		preds := make([]float64, len(hw))
		for i := range preds {
			preds[i] = r.Uniform(0, 1000)
		}
		tr := float64(trRaw%50) / 100
		ts := float64(tsRaw % 100)
		sel := TolerantSelect(preds, hw, tr, ts)
		if sel < 0 || sel >= len(hw) {
			return false
		}
		minPred := preds[0]
		for _, p := range preds {
			if p < minPred {
				minPred = p
			}
		}
		return preds[sel] <= (1+tr)*minPred+ts+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTolerantSelectPrefersEfficientUnderTolerance(t *testing.T) {
	// With an enormous tolerance every arm qualifies, so the selection
	// must be the globally most efficient arm.
	hw := hardware.MatMulDefault()
	preds := []float64{500, 400, 300, 200, 100}
	got := TolerantSelect(preds, hw, 0, 1e9)
	want := hw.MostEfficient(nil)
	if got != want {
		t.Fatalf("huge tolerance pick = %d, want %d", got, want)
	}
}

func TestExplorationFraction(t *testing.T) {
	// With ε fixed at 1 (alpha=1), every decision must explore; arms
	// should be near-uniformly distributed.
	b, err := New(testHW(), 1, Options{Alpha: 1, Epsilon0: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		d, err := b.Recommend([]float64{1})
		if err != nil {
			t.Fatal(err)
		}
		if !d.Explored {
			t.Fatal("ε=1 decision did not explore")
		}
		counts[d.Arm]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("arm %d explored %d/3000 times, want ~1000", i, c)
		}
	}
}

func TestStepLoop(t *testing.T) {
	b := newTestBandit(t, 1, Options{Seed: 9})
	d, rt, err := b.Step([]float64{5}, func(arm int) float64 { return float64(arm + 1) })
	if err != nil {
		t.Fatal(err)
	}
	if rt != float64(d.Arm+1) {
		t.Fatalf("Step runtime = %v for arm %d", rt, d.Arm)
	}
	if b.Round() != 1 {
		t.Fatal("Step did not advance the round")
	}
}

func TestSaveLoadState(t *testing.T) {
	b := newTestBandit(t, 2, Options{Seed: 21, ToleranceSeconds: 20})
	r := rng.New(2)
	for i := 0; i < 50; i++ {
		x := []float64{r.Uniform(0, 10), r.Uniform(0, 10)}
		d, err := b.Recommend(x)
		if err != nil {
			t.Fatal(err)
		}
		_ = b.Observe(d.Arm, x, 3*x[0]+2*x[1]+float64(d.Arm)*5)
	}
	var buf bytes.Buffer
	if err := b.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Round() != b.Round() || math.Abs(back.Epsilon()-b.Epsilon()) > 1e-15 {
		t.Fatal("round/epsilon not restored")
	}
	x := []float64{4, 6}
	origPreds, _ := b.PredictAll(x)
	backPreds, _ := back.PredictAll(x)
	for i := range origPreds {
		if math.Abs(origPreds[i]-backPreds[i]) > 1e-9 {
			t.Fatalf("arm %d prediction drifted after restore: %v vs %v",
				i, origPreds[i], backPreds[i])
		}
	}
	// Restored bandit must continue learning.
	if err := back.Observe(0, x, 25); err != nil {
		t.Fatal(err)
	}
}

func TestLoadStateErrors(t *testing.T) {
	if _, err := LoadState(strings.NewReader("{")); err == nil {
		t.Fatal("truncated json should fail")
	}
	if _, err := LoadState(strings.NewReader(`{"version":99}`)); err == nil {
		t.Fatal("wrong version should fail")
	}
	if _, err := LoadState(strings.NewReader(`{"version":1,"hardware":[{"Name":"H0","CPUs":1,"MemoryGB":1}],"dim":1,"arms":[],"models":[]}`)); err == nil {
		t.Fatal("arm/hardware count mismatch should fail")
	}
}

// TestLoadStateRefusesRoundOutOfRange: a saved round counter outside
// [0, MaxLoadedRound] is refused, so the next local observe cannot wrap
// it negative. A counter that local observes took past MaxRounds loads.
func TestLoadStateRefusesRoundOutOfRange(t *testing.T) {
	b := newTestBandit(t, 1, Options{})
	var buf bytes.Buffer
	if err := b.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	withRound := func(n int) string {
		return strings.Replace(saved, `"round": 0,`, fmt.Sprintf(`"round": %d,`, n), 1)
	}
	for _, n := range []int{-5, math.MaxInt, MaxLoadedRound + 1} {
		if _, err := LoadState(strings.NewReader(withRound(n))); err == nil {
			t.Fatalf("round %d: loaded", n)
		}
	}
	for _, n := range []int{MaxRounds + 1, MaxLoadedRound} {
		back, err := LoadState(strings.NewReader(withRound(n)))
		if err != nil {
			t.Fatal(err)
		}
		if back.Round() != n {
			t.Fatalf("round %d, want %d", back.Round(), n)
		}
	}
}

func TestDecisionPredictionsAreCopies(t *testing.T) {
	b := newTestBandit(t, 1, Options{ZeroEpsilon: true})
	d, err := b.Recommend([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	d.Predicted[0] = 999
	preds, _ := b.PredictAll([]float64{1})
	if preds[0] == 999 {
		t.Fatal("Decision shares prediction storage with the bandit")
	}
}

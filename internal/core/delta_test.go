package core

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"banditware/internal/hardware"
	"banditware/internal/regress"
)

func deltaHW() hardware.Set {
	return hardware.Set{
		{Name: "small", CPUs: 2, MemoryGB: 4},
		{Name: "medium", CPUs: 8, MemoryGB: 16},
		{Name: "large", CPUs: 32, MemoryGB: 64},
	}
}

func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestBanditDeltaMergeMatchesSingleNode shards one seeded trace across
// three bandits, merges their arm deltas and rounds into a fresh
// bandit, and checks the merged bandit matches the single-node bandit
// that saw the whole trace: same models, same ε (float-exact — the
// decay walks the identical multiplication sequence), same exploit
// decisions.
func TestBanditDeltaMergeMatchesSingleNode(t *testing.T) {
	hw := deltaHW()
	const dim, n, shards = 2, 300, 3
	opts := Options{Seed: 11, MinEpsilon: 0.01}

	single, err := New(hw, dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	fleet := make([]*Bandit, shards)
	for k := range fleet {
		if fleet[k], err = New(hw, dim, opts); err != nil {
			t.Fatal(err)
		}
	}
	truth := func(arm int, x []float64) float64 {
		return float64(arm+1)*x[0] + 0.5*float64(2-arm)*x[1] + 3
	}
	for i := 0; i < n; i++ {
		x := []float64{float64(i%7) / 3, float64(i%5) / 2}
		arm := i % len(hw)
		y := truth(arm, x)
		if err := single.Observe(arm, x, y); err != nil {
			t.Fatal(err)
		}
		if err := fleet[i%shards].Observe(arm, x, y); err != nil {
			t.Fatal(err)
		}
	}

	merged, err := New(hw, dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range fleet {
		for a := 0; a < len(hw); a++ {
			delta, err := b.ArmLearned(a)
			if err != nil {
				t.Fatal(err)
			}
			if err := merged.MergeArmDelta(a, delta); err != nil {
				t.Fatal(err)
			}
		}
		if err := merged.AbsorbRounds(b.Round()); err != nil {
			t.Fatal(err)
		}
	}

	if merged.Round() != single.Round() {
		t.Fatalf("round = %d, want %d", merged.Round(), single.Round())
	}
	if merged.Epsilon() != single.Epsilon() {
		t.Fatalf("epsilon = %g, want %g (must be float-exact)", merged.Epsilon(), single.Epsilon())
	}
	for a := 0; a < len(hw); a++ {
		mm, err1 := merged.Model(a)
		sm, err2 := single.Model(a)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for j := range mm.Weights {
			if !relClose(mm.Weights[j], sm.Weights[j], 1e-8) {
				t.Fatalf("arm %d w[%d] = %g, want %g", a, j, mm.Weights[j], sm.Weights[j])
			}
		}
		if !relClose(mm.Bias, sm.Bias, 1e-8) {
			t.Fatalf("arm %d bias = %g, want %g", a, mm.Bias, sm.Bias)
		}
		mn, _ := merged.ArmObservations(a)
		sn, _ := single.ArmObservations(a)
		if mn != sn {
			t.Fatalf("arm %d n = %d, want %d", a, mn, sn)
		}
	}
	for i := 0; i < 40; i++ {
		x := []float64{float64(i) / 13, float64(i%9) / 4}
		ma, err1 := merged.Exploit(x)
		sa, err2 := single.Exploit(x)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if ma != sa {
			t.Fatalf("exploit(%v) = %d, want %d", x, ma, sa)
		}
	}
}

func TestBanditDeltaNonMergeableModes(t *testing.T) {
	hw := deltaHW()
	cases := []struct {
		name string
		opts Options
	}{
		{"window", Options{WindowSize: 8}},
		{"forgetting", Options{ForgettingFactor: 0.95}},
		{"batch", Options{BatchRefit: true}},
	}
	for _, c := range cases {
		b, err := New(hw, 2, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := b.ArmLearned(0); !errors.Is(err, regress.ErrNotMergeable) {
			t.Fatalf("%s: ArmLearned = %v, want ErrNotMergeable", c.name, err)
		}
		if err := b.MergeArmDelta(0, regress.Sufficient{Dim: 2}); !errors.Is(err, regress.ErrNotMergeable) {
			t.Fatalf("%s: MergeArmDelta = %v, want ErrNotMergeable", c.name, err)
		}
	}
	// The default stationary configuration is mergeable.
	b, err := New(hw, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ArmLearned(0); err != nil {
		t.Fatalf("stationary bandit not mergeable: %v", err)
	}
}

func TestBanditDeltaBadArgs(t *testing.T) {
	b, err := New(deltaHW(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ArmLearned(9); !errors.Is(err, ErrArm) {
		t.Fatalf("out-of-range arm: %v", err)
	}
	if err := b.AbsorbRounds(-1); err == nil {
		t.Fatal("negative rounds accepted")
	}
}

// TestAbsorbRoundsBounded: absorbing 2⁴⁰ rounds finishes promptly —
// once a decay step leaves ε unchanged the rest advance the counter in
// one step — and lands on the ε the step-by-step schedule reaches,
// float-exact, for the default α, a floor, α = 1 and ε₀ = 0. A round
// count that would overflow the counter is refused.
func TestAbsorbRoundsBounded(t *testing.T) {
	cases := []Options{
		{},
		{MinEpsilon: 0.05},
		{Alpha: 1},
		{Alpha: 0.5},
		{ZeroEpsilon: true},
	}
	for _, opts := range cases {
		b, err := New(deltaHW(), 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		// The schedule step by step, until it stops changing.
		o := b.opts
		want := o.Epsilon0
		for {
			next := max(want*o.Alpha, o.MinEpsilon)
			if next == want {
				break
			}
			want = next
		}
		const k = 1 << 40
		done := make(chan error, 1)
		go func() { done <- b.AbsorbRounds(k) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%+v: AbsorbRounds(2⁴⁰) still running after 10 s", opts)
		}
		if b.Round() != k || b.Epsilon() != want {
			t.Fatalf("%+v: round %d, ε %v; want %d, %v", opts, b.Round(), b.Epsilon(), k, want)
		}
		if err := b.AbsorbRounds(math.MaxInt - k + 1); err == nil {
			t.Fatalf("%+v: a round count past the counter's range was accepted", opts)
		}
		if b.Round() != k {
			t.Fatalf("%+v: a refused absorb moved the round to %d", opts, b.Round())
		}
	}
}

// TestAbsorbRoundsStopsAtMaxRounds: merged rounds may take the counter
// to MaxRounds and no further, so local observes after the largest
// merge still count up from a positive round, and the state they leave
// saves and loads back.
func TestAbsorbRoundsStopsAtMaxRounds(t *testing.T) {
	b, err := New(deltaHW(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AbsorbRounds(math.MaxInt); err == nil {
		t.Fatal("MaxInt rounds absorbed into a fresh bandit")
	}
	if b.Round() != 0 {
		t.Fatalf("a refused absorb moved the round to %d", b.Round())
	}
	if err := b.AbsorbRounds(MaxRounds); err != nil {
		t.Fatal(err)
	}
	if err := b.AbsorbRounds(1); err == nil {
		t.Fatal("a round past MaxRounds absorbed")
	}
	if err := b.Observe(0, []float64{1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	if b.Round() != MaxRounds+1 {
		t.Fatalf("round after a local observe = %d, want %d", b.Round(), MaxRounds+1)
	}
	var buf bytes.Buffer
	if err := b.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadState(&buf)
	if err != nil {
		t.Fatalf("loading a state past MaxRounds: %v", err)
	}
	if back.Round() != MaxRounds+1 {
		t.Fatalf("loaded round = %d, want %d", back.Round(), MaxRounds+1)
	}
}

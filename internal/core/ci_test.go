package core

import (
	"fmt"
	"math"
	"testing"

	"banditware/internal/rng"
)

func TestPredictWithCI(t *testing.T) {
	b := newTestBandit(t, 1, Options{Seed: 71})
	// Before any observations: infinite intervals.
	ivs, err := b.PredictWithCI([]float64{10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range ivs {
		if !math.IsInf(iv.Lo, -1) || !math.IsInf(iv.Hi, 1) {
			t.Fatal("untrained arm should report infinite interval")
		}
	}
	// Train arm 0 on y = 3x + 5 with σ = 2.
	r := rng.New(72)
	for i := 0; i < 200; i++ {
		x := []float64{r.Uniform(0, 20)}
		if err := b.Observe(0, x, 3*x[0]+5+r.Normal(0, 2)); err != nil {
			t.Fatal(err)
		}
	}
	ivs, err = b.PredictWithCI([]float64{10}, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	iv := ivs[0]
	truth := 3*10.0 + 5
	if iv.Lo > truth || iv.Hi < truth {
		t.Fatalf("95%% interval [%v, %v] misses truth %v", iv.Lo, iv.Hi, truth)
	}
	// Interval should be a handful of σ wide, not degenerate or huge.
	// (The residual tracker includes the large early-round errors, so the
	// width overestimates σ initially — by 200 rounds it must be sane.)
	width := iv.Hi - iv.Lo
	if width < 2 || width > 60 {
		t.Fatalf("interval width = %v, want O(4σ)", width)
	}
	// Untrained arm 1 still infinite.
	if !math.IsInf(ivs[1].Hi, 1) {
		t.Fatal("arm 1 should still be untrained")
	}
}

func TestPredictWithCIDimError(t *testing.T) {
	b := newTestBandit(t, 2, Options{})
	if _, err := b.PredictWithCI([]float64{1}, 0); err != ErrDim {
		t.Fatal("wrong dim should be ErrDim")
	}
}

func TestPredictWithCIShrinksWithData(t *testing.T) {
	b := newTestBandit(t, 1, Options{Seed: 73})
	r := rng.New(74)
	feed := func(n int) {
		for i := 0; i < n; i++ {
			x := []float64{r.Uniform(0, 20)}
			_ = b.Observe(0, x, 2*x[0]+r.Normal(0, 1))
		}
	}
	feed(10)
	iv10, _ := b.PredictWithCI([]float64{10}, 0)
	feed(500)
	iv500, _ := b.PredictWithCI([]float64{10}, 0)
	if iv500[0].Hi-iv500[0].Lo >= iv10[0].Hi-iv10[0].Lo {
		t.Fatalf("interval did not shrink with data: %v -> %v",
			iv10[0].Hi-iv10[0].Lo, iv500[0].Hi-iv500[0].Lo)
	}
}

// TestRefusedObservationKeepsIntervalFinite: an observation refused for
// a non-finite feature, or for a finite feature whose one-step residual
// squares past the float64 range, changes nothing, so the arm's
// prediction interval stays finite and exactly as it was. The residual
// tracker used to record the residual before the estimator refused the
// features, leaving the interval at NaN or ±Inf for good.
func TestRefusedObservationKeepsIntervalFinite(t *testing.T) {
	for _, window := range []int{0, 4} {
		for _, bad := range []float64{math.Inf(1), 1e200} {
			t.Run(fmt.Sprintf("window=%d/x=%g", window, bad), func(t *testing.T) {
				b := newTestBandit(t, 1, Options{Seed: 75, WindowSize: window})
				for i := 1; i <= 5; i++ {
					x := float64(i)
					if err := b.Observe(0, []float64{x}, 3*x+5+0.1*float64(i%2)); err != nil {
						t.Fatal(err)
					}
				}
				before, err := b.PredictWithCI([]float64{3}, 0)
				if err != nil {
					t.Fatal(err)
				}
				obsErr := b.Observe(0, []float64{bad}, 5)
				if obsErr == nil {
					t.Fatal("observation accepted")
				}
				after, err := b.PredictWithCI([]float64{3}, 0)
				if err != nil {
					t.Fatal(err)
				}
				iv := after[0]
				if math.IsNaN(iv.Lo) || math.IsInf(iv.Lo, 0) || math.IsNaN(iv.Hi) || math.IsInf(iv.Hi, 0) {
					t.Fatalf("interval %+v after a refused observation", iv)
				}
				if iv != before[0] {
					t.Fatalf("interval moved from %+v to %+v", before[0], iv)
				}
				if obsErr != ErrBadValue {
					t.Fatalf("err = %v, want ErrBadValue", obsErr)
				}
				if b.Round() != 5 {
					t.Fatalf("round %d after a refused observation, want 5", b.Round())
				}
			})
		}
	}
}

// TestRefusedObservationKeepsVarianceFinite: two residuals whose squares
// are each finite can still overflow the residual tracker's sum of
// squares, and with it every interval of the arm. The observation that
// would do so is refused with ErrBadValue and leaves the interval as it
// was.
func TestRefusedObservationKeepsVarianceFinite(t *testing.T) {
	b := newTestBandit(t, 1, Options{Seed: 75})
	for i := 1; i <= 5; i++ {
		x := float64(i)
		if err := b.Observe(0, []float64{x}, 3*x+5+0.1*float64(i%2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Observe(0, []float64{3}, 1e154); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.5}
	preds, err := b.PredictAll(x)
	if err != nil {
		t.Fatal(err)
	}
	before, err := b.PredictWithCI(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A residual of -1.3e154: its square is finite, the sum of squares is not.
	if err := b.Observe(0, x, preds[0]-1.3e154); err != ErrBadValue {
		t.Fatalf("err = %v, want ErrBadValue", err)
	}
	after, err := b.PredictWithCI(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if iv := after[0]; math.IsInf(iv.Lo, 0) || math.IsInf(iv.Hi, 0) || iv != before[0] {
		t.Fatalf("interval %+v after a refused observation, was %+v", iv, before[0])
	}
}

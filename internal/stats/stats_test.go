package stats

import (
	"math"
	"testing"
	"testing/quick"

	"banditware/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with divisor n-1: sum sq dev = 32, /7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEqual(got, want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("Variance of single element should be 0")
	}
}

func TestPopVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := PopVariance(xs); !almostEqual(got, 4.0, 1e-12) {
		t.Fatalf("PopVariance = %v, want 4", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max should be ±Inf")
	}
}

func TestArgMinTies(t *testing.T) {
	xs := []float64{3, -1, 7, -1}
	if got := ArgMin(xs); got != 1 {
		t.Fatalf("ArgMin = %d, want 1 (first of ties)", got)
	}
	if ArgMin(nil) != -1 {
		t.Fatal("empty ArgMin should be -1")
	}
}

func TestArgMinSkipsNaN(t *testing.T) {
	xs := []float64{math.NaN(), 5, 2}
	if got := ArgMin(xs); got != 2 {
		t.Fatalf("ArgMin with NaN = %d, want 2", got)
	}
	allNaN := []float64{math.NaN(), math.NaN()}
	if got := ArgMin(allNaN); got != 0 {
		t.Fatalf("ArgMin all-NaN = %d, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{1, 2}, 0.5); !almostEqual(got, 1.5, 1e-12) {
		t.Fatalf("interpolated median = %v, want 1.5", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("Quantile of empty should be NaN")
	}
	if !math.IsNaN(Quantile(xs, 1.5)) {
		t.Fatal("Quantile out of range should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Min != 1 || s.Max != 8 {
		t.Fatalf("bad summary %+v", s)
	}
	if !almostEqual(s.Median, 4.5, 1e-12) {
		t.Fatalf("median = %v, want 4.5", s.Median)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		if n < 2 {
			return true
		}
		r := rng.New(seed)
		xs := make([]float64, int(n))
		var w Welford
		for i := range xs {
			xs[i] = r.Normal(5, 2)
			w.Add(xs[i])
		}
		return almostEqual(w.Mean(), Mean(xs), 1e-10) &&
			almostEqual(w.Variance(), Variance(xs), 1e-10)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMerge(t *testing.T) {
	r := rng.New(99)
	xs := make([]float64, 1000)
	var a, b, whole Welford
	for i := range xs {
		xs[i] = r.Normal(0, 1)
		whole.Add(xs[i])
		if i < 400 {
			a.Add(xs[i])
		} else {
			b.Add(xs[i])
		}
	}
	a.Merge(b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	if !almostEqual(a.Mean(), whole.Mean(), 1e-10) {
		t.Fatalf("merged mean %v != %v", a.Mean(), whole.Mean())
	}
	if !almostEqual(a.Variance(), whole.Variance(), 1e-10) {
		t.Fatalf("merged variance %v != %v", a.Variance(), whole.Variance())
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(2)
	saved := a
	a.Merge(b)
	if a != saved {
		t.Fatal("merging empty changed the accumulator")
	}
	b.Merge(a)
	if b.N() != 2 || !almostEqual(b.Mean(), 1.5, 1e-12) {
		t.Fatal("merging into empty failed")
	}
}

func TestRMSE(t *testing.T) {
	got, err := RMSE([]float64{1, 2, 3}, []float64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(4.0 / 3.0)
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("RMSE = %v, want %v", got, want)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Fatal("expected length mismatch error")
	}
	if _, err := RMSE(nil, nil); err != ErrEmpty {
		t.Fatal("expected ErrEmpty")
	}
}

func TestMAE(t *testing.T) {
	got, err := MAE([]float64{1, 2, 3}, []float64{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 1.0, 1e-12) {
		t.Fatalf("MAE = %v, want 1", got)
	}
}

func TestR2(t *testing.T) {
	actual := []float64{1, 2, 3, 4}
	if got, _ := R2(actual, actual); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("perfect R2 = %v, want 1", got)
	}
	mean := Mean(actual)
	pred := []float64{mean, mean, mean, mean}
	if got, _ := R2(pred, actual); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("mean-predictor R2 = %v, want 0", got)
	}
	// Worse than the mean ⇒ negative.
	bad := []float64{4, 3, 2, 1}
	if got, _ := R2(bad, actual); got >= 0 {
		t.Fatalf("anti-correlated R2 = %v, want negative", got)
	}
}

func TestR2ConstantActual(t *testing.T) {
	actual := []float64{2, 2, 2}
	if got, _ := R2([]float64{2, 2, 2}, actual); got != 0 {
		t.Fatalf("constant/exact R2 = %v, want 0", got)
	}
	if got, _ := R2([]float64{1, 2, 3}, actual); !math.IsInf(got, -1) {
		t.Fatalf("constant/mismatch R2 = %v, want -Inf", got)
	}
}

func TestNRMSE(t *testing.T) {
	actual := []float64{0, 2, 4, 6}
	pred := []float64{1, 3, 5, 7} // constant offset 1
	got, err := NRMSE(pred, actual)
	if err != nil {
		t.Fatal(err)
	}
	sd := math.Sqrt(PopVariance(actual))
	if !almostEqual(got, 1/sd, 1e-12) {
		t.Fatalf("NRMSE = %v, want %v", got, 1/sd)
	}
}

func TestRMSEIdentityWithR2(t *testing.T) {
	// R2 = 1 - (RMSE^2 * n) / SS_tot; check the identity on random data.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 50
		actual := make([]float64, n)
		pred := make([]float64, n)
		for i := range actual {
			actual[i] = r.Normal(0, 3)
			pred[i] = actual[i] + r.Normal(0, 1)
		}
		rmse, _ := RMSE(pred, actual)
		r2, _ := R2(pred, actual)
		mean := Mean(actual)
		ssTot := 0.0
		for _, a := range actual {
			ssTot += (a - mean) * (a - mean)
		}
		want := 1 - rmse*rmse*float64(n)/ssTot
		return almostEqual(r2, want, 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

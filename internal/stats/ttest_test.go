package stats

import (
	"math"
	"testing"

	"banditware/internal/rng"
)

func TestWelchTTestDistinguishes(t *testing.T) {
	r := rng.New(5)
	xs := make([]float64, 60)
	ys := make([]float64, 60)
	for i := range xs {
		xs[i] = r.Normal(10, 2)
		ys[i] = r.Normal(13, 3)
	}
	res, err := WelchTTest(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-4 {
		t.Fatalf("clearly different means got p = %v", res.P)
	}
	if res.T >= 0 {
		t.Fatalf("t should be negative (mx < my): %v", res.T)
	}
}

func TestWelchTTestNull(t *testing.T) {
	// Same distribution: p should usually be large; average over seeds.
	rejections := 0
	const trials = 200
	for seed := uint64(0); seed < trials; seed++ {
		r := rng.New(seed + 100)
		xs := make([]float64, 30)
		ys := make([]float64, 30)
		for i := range xs {
			xs[i] = r.Normal(7, 2)
			ys[i] = r.Normal(7, 2)
		}
		res, err := WelchTTest(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if res.P < 0.05 {
			rejections++
		}
	}
	// Expected false-rejection rate 5%; allow generous slack.
	if rejections > trials/8 {
		t.Fatalf("null rejected %d/%d times at alpha=0.05", rejections, trials)
	}
}

func TestWelchTTestDegenerate(t *testing.T) {
	if _, err := WelchTTest([]float64{1}, []float64{1, 2}); err != ErrEmpty {
		t.Fatal("short sample should be ErrEmpty")
	}
	res, err := WelchTTest([]float64{3, 3, 3}, []float64{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 || res.T != 0 {
		t.Fatalf("identical constants: %+v", res)
	}
	res, err = WelchTTest([]float64{3, 3, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0 {
		t.Fatalf("disjoint constants: %+v", res)
	}
}

func TestRegIncBetaKnown(t *testing.T) {
	// I_x(1, 1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := regIncBeta(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Fatalf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a, b) = 1 − I_{1−x}(b, a).
	got := regIncBeta(2.5, 1.5, 0.3)
	sym := 1 - regIncBeta(1.5, 2.5, 0.7)
	if math.Abs(got-sym) > 1e-10 {
		t.Fatalf("symmetry violated: %v vs %v", got, sym)
	}
	if regIncBeta(2, 3, 0) != 0 || regIncBeta(2, 3, 1) != 1 {
		t.Fatal("boundary values wrong")
	}
}

func TestStudentTKnownQuantiles(t *testing.T) {
	// For df=10, P(T > 2.228) ≈ 0.025 (the classic 95% two-sided value).
	p := studentTCDFUpper(2.228, 10)
	if math.Abs(p-0.025) > 0.002 {
		t.Fatalf("P(T>2.228; df=10) = %v, want ~0.025", p)
	}
	// Large df approaches the normal: P(T > 1.96) ≈ 0.025.
	p = studentTCDFUpper(1.96, 1000)
	if math.Abs(p-0.025) > 0.002 {
		t.Fatalf("P(T>1.96; df=1000) = %v, want ~0.025", p)
	}
	// Negative t mirrors.
	if got := studentTCDFUpper(-1, 5) + studentTCDFUpper(1, 5); math.Abs(got-1) > 1e-12 {
		t.Fatal("tail symmetry violated")
	}
}

package regress

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"banditware/internal/hardware"
	"banditware/internal/rng"
)

// genLinear builds n samples from y = w·x + b + N(0, noise).
func genLinear(r *rng.Source, w []float64, b float64, n int, noise float64) (xs [][]float64, y []float64) {
	xs = make([][]float64, n)
	y = make([]float64, n)
	for i := 0; i < n; i++ {
		x := make([]float64, len(w))
		for j := range x {
			x[j] = r.Uniform(-5, 5)
		}
		xs[i] = x
		y[i] = b
		for j := range w {
			y[i] += w[j] * x[j]
		}
		if noise > 0 {
			y[i] += r.Normal(0, noise)
		}
	}
	return xs, y
}

func TestFitOLSRecovery(t *testing.T) {
	r := rng.New(1)
	wTrue := []float64{2.5, -1.25, 0.75}
	xs, y := genLinear(r, wTrue, 10, 200, 0)
	m, err := FitOLS(xs, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range wTrue {
		if math.Abs(m.Weights[j]-wTrue[j]) > 1e-8 {
			t.Fatalf("weight %d = %v, want %v", j, m.Weights[j], wTrue[j])
		}
	}
	if math.Abs(m.Bias-10) > 1e-8 {
		t.Fatalf("bias = %v, want 10", m.Bias)
	}
}

func TestFitOLSNoisyRecovery(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		wTrue := []float64{3, -2}
		xs, y := genLinear(r, wTrue, 5, 500, 0.5)
		m, err := FitOLS(xs, y, 0)
		if err != nil {
			return false
		}
		return math.Abs(m.Weights[0]-3) < 0.2 &&
			math.Abs(m.Weights[1]+2) < 0.2 &&
			math.Abs(m.Bias-5) < 0.2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFitOLSErrors(t *testing.T) {
	if _, err := FitOLS(nil, nil, 0); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
	if _, err := FitOLS([][]float64{{1}}, []float64{1, 2}, 0); !errors.Is(err, ErrBadInput) {
		t.Fatal("length mismatch should be ErrBadInput")
	}
	if _, err := FitOLS([][]float64{{1}, {1, 2}}, []float64{1, 2}, 0); !errors.Is(err, ErrBadInput) {
		t.Fatal("ragged rows should be ErrBadInput")
	}
	if _, err := FitOLS([][]float64{{math.NaN()}}, []float64{1}, 0); !errors.Is(err, ErrBadInput) {
		t.Fatal("NaN features should be ErrBadInput")
	}
	if _, err := FitOLS([][]float64{{1}}, []float64{math.Inf(1)}, 0); !errors.Is(err, ErrBadInput) {
		t.Fatal("Inf target should be ErrBadInput")
	}
}

func TestFitOLSUnderdetermined(t *testing.T) {
	// Fewer samples than parameters must still produce a finite model via
	// the ridge path.
	xs := [][]float64{{1, 2, 3}}
	y := []float64{6}
	m, err := FitOLS(xs, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(m.Predict([]float64{1, 2, 3})) {
		t.Fatal("underdetermined fit produced NaN")
	}
}

func TestZeroModel(t *testing.T) {
	m := Zero(3)
	if m.Predict([]float64{100, 100, 100}) != 0 {
		t.Fatal("zero model must predict 0 (Algorithm 1 initial state)")
	}
}

func TestModelClone(t *testing.T) {
	m := Model{Weights: []float64{1, 2}, Bias: 3}
	c := m.Clone()
	c.Weights[0] = 99
	if m.Weights[0] != 1 {
		t.Fatal("Clone shares weight storage")
	}
}

func TestEvaluate(t *testing.T) {
	m := Model{Weights: []float64{2}, Bias: 0}
	xs := [][]float64{{1}, {2}, {3}}
	y := []float64{2, 4, 6}
	s, err := Evaluate(m, xs, y)
	if err != nil {
		t.Fatal(err)
	}
	if s.RMSE != 0 || s.R2 != 1 {
		t.Fatalf("perfect model scored %+v", s)
	}
	if _, err := Evaluate(m, xs, y[:2]); !errors.Is(err, ErrBadInput) {
		t.Fatal("mismatched eval should be ErrBadInput")
	}
}

func TestRLSMatchesBatchOLS(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		wTrue := []float64{1.5, -0.5}
		xs, y := genLinear(r, wTrue, 2, 120, 0.3)
		batch, err := FitOLS(xs, y, 0)
		if err != nil {
			return false
		}
		rls, err := NewRLS(2, 1e-8)
		if err != nil {
			return false
		}
		for i := range xs {
			if err := rls.Update(xs[i], y[i]); err != nil {
				return false
			}
		}
		online := rls.Model()
		for j := range batch.Weights {
			if math.Abs(batch.Weights[j]-online.Weights[j]) > 1e-4 {
				return false
			}
		}
		return math.Abs(batch.Bias-online.Bias) < 1e-4
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestRLSUpdateErrors(t *testing.T) {
	rls, err := NewRLS(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rls.Update([]float64{1}, 1); !errors.Is(err, ErrBadInput) {
		t.Fatal("short feature should be ErrBadInput")
	}
	if err := rls.Update([]float64{1, math.NaN()}, 1); !errors.Is(err, ErrBadInput) {
		t.Fatal("NaN feature should be ErrBadInput")
	}
	if err := rls.Update([]float64{1, 2}, math.Inf(-1)); !errors.Is(err, ErrBadInput) {
		t.Fatal("Inf target should be ErrBadInput")
	}
	if rls.N() != 0 {
		t.Fatal("failed updates must not count")
	}
}

func TestRLSNegativeDim(t *testing.T) {
	if _, err := NewRLS(-1, 0); err == nil {
		t.Fatal("negative dim should error")
	}
}

func TestRLSInterceptOnly(t *testing.T) {
	// dim 0: the estimator reduces to a running mean.
	rls, err := NewRLS(0, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{2, 4, 6} {
		if err := rls.Update(nil, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := rls.Predict(nil); math.Abs(got-4) > 1e-6 {
		t.Fatalf("intercept-only prediction = %v, want ~4", got)
	}
}

func TestRLSUncertaintyShrinks(t *testing.T) {
	rls, _ := NewRLS(1, 1e-3)
	x := []float64{1}
	before := rls.Uncertainty(x)
	for i := 0; i < 10; i++ {
		if err := rls.Update(x, 2); err != nil {
			t.Fatal(err)
		}
	}
	after := rls.Uncertainty(x)
	if after >= before {
		t.Fatalf("uncertainty did not shrink: %v -> %v", before, after)
	}
	if math.IsInf(rls.Uncertainty([]float64{1, 2}), 1) == false {
		t.Fatal("wrong-length uncertainty should be +Inf")
	}
}

func TestRLSReset(t *testing.T) {
	rls, _ := NewRLS(1, 1e-3)
	for i := 0; i < 5; i++ {
		_ = rls.Update([]float64{float64(i)}, float64(2*i))
	}
	rls.Reset()
	if rls.N() != 0 || rls.Predict([]float64{10}) != 0 {
		t.Fatal("Reset did not restore prior state")
	}
}

func TestRLSJSONRoundTrip(t *testing.T) {
	rls, _ := NewRLS(2, 1e-5)
	r := rng.New(3)
	for i := 0; i < 20; i++ {
		x := []float64{r.Float64(), r.Float64()}
		_ = rls.Update(x, 3*x[0]-x[1]+1)
	}
	blob, err := json.Marshal(rls)
	if err != nil {
		t.Fatal(err)
	}
	var back RLS
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.5, -0.5}
	if math.Abs(back.Predict(probe)-rls.Predict(probe)) > 1e-12 {
		t.Fatal("round-tripped RLS predicts differently")
	}
	if back.N() != rls.N() {
		t.Fatal("round-tripped N differs")
	}
}

func TestRLSJSONCorrupt(t *testing.T) {
	var r RLS
	if err := json.Unmarshal([]byte(`{"dim":2,"lambda":1,"w":[1],"p":[1],"n":0}`), &r); err == nil {
		t.Fatal("corrupt state should fail to unmarshal")
	}
	if err := json.Unmarshal([]byte(`{`), &r); err == nil {
		t.Fatal("truncated json should fail")
	}
}

func TestRLSSampleWeights(t *testing.T) {
	rls, _ := NewRLS(1, 1e-2)
	for i := 0; i < 50; i++ {
		_ = rls.Update([]float64{float64(i % 10)}, 2*float64(i%10)+1)
	}
	r := rng.New(5)
	m, err := rls.SampleWeights(1.0, func() float64 { return r.Normal(0, 1) })
	if err != nil {
		t.Fatal(err)
	}
	// The posterior sample should be near the mean estimate.
	mean := rls.Model()
	if math.Abs(m.Weights[0]-mean.Weights[0]) > 2 {
		t.Fatalf("posterior sample far from mean: %v vs %v", m.Weights[0], mean.Weights[0])
	}
	// With v=0 the sample must equal the mean exactly.
	exact, err := rls.SampleWeights(0, func() float64 { return r.Normal(0, 1) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Weights[0]-mean.Weights[0]) > 1e-12 {
		t.Fatal("v=0 sample should equal the mean")
	}
}

// TestRLSSamplePredictMatchesSampleWeights pins SamplePredict to the
// allocating form it replaces on the LinTS path: for the same draws it
// returns SampleWeights(v, unit).Predict(x) bit for bit.
func TestRLSSamplePredictMatchesSampleWeights(t *testing.T) {
	rls, _ := NewRLS(3, 1e-2)
	r := rng.New(9)
	for i := 0; i < 40; i++ {
		x := []float64{r.Float64() * 10, r.Float64(), float64(i % 7)}
		_ = rls.Update(x, 3*x[0]-x[1]+0.5*x[2]+r.Normal(0, 1))
		a, b := rng.New(uint64(i)), rng.New(uint64(i))
		m, err := rls.SampleWeights(0.7, func() float64 { return a.Normal(0, 1) })
		if err != nil {
			t.Fatal(err)
		}
		got := rls.SamplePredict(0.7, func() float64 { return b.Normal(0, 1) }, x)
		if want := m.Predict(x); got != want {
			t.Fatalf("update %d: SamplePredict = %v, SampleWeights(…).Predict = %v", i, got, want)
		}
	}
}

func TestFitRecommender(t *testing.T) {
	hw := hardware.NDPDefault()
	r := rng.New(7)
	// Arm i has true model y = (i+1)·x + 10i.
	xs := make([][][]float64, len(hw))
	ys := make([][]float64, len(hw))
	for i := range hw {
		x, y := genLinear(r, []float64{float64(i + 1)}, 10*float64(i), 60, 0.1)
		xs[i], ys[i] = x, y
	}
	rec, err := FitRecommender(hw, xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	// At x=5: arm 0 predicts ~5, arm 1 ~20, arm 2 ~35 ⇒ recommend arm 0.
	if got := rec.Recommend([]float64{5}); got != 0 {
		t.Fatalf("Recommend = %d, want 0", got)
	}
	preds := rec.PredictAllArms([]float64{5})
	if len(preds) != 3 || preds[0] >= preds[1] {
		t.Fatalf("PredictAllArms = %v", preds)
	}
}

func TestFitRecommenderEmptyArm(t *testing.T) {
	hw := hardware.Set{{Name: "A", CPUs: 1, MemoryGB: 1}, {Name: "B", CPUs: 2, MemoryGB: 2}}
	xs := [][][]float64{{{1}, {2}}, nil}
	ys := [][]float64{{2, 4}, nil}
	rec, err := FitRecommender(hw, xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Models[1].Predict([]float64{3}) != 0 {
		t.Fatal("empty arm should carry the zero model")
	}
}

func TestFitRecommenderErrors(t *testing.T) {
	hw := hardware.NDPDefault()
	if _, err := FitRecommender(hw, nil, nil, 0); !errors.Is(err, ErrBadInput) {
		t.Fatal("mismatched groups should be ErrBadInput")
	}
	if _, err := FitRecommender(hardware.Set{}, nil, nil, 0); err == nil {
		t.Fatal("empty hardware should error")
	}
}

func TestEvaluatePooled(t *testing.T) {
	hw := hardware.Set{{Name: "A", CPUs: 1, MemoryGB: 1}, {Name: "B", CPUs: 2, MemoryGB: 2}}
	rec := &Recommender{
		Hardware: hw,
		Models:   []Model{{Weights: []float64{1}, Bias: 0}, {Weights: []float64{2}, Bias: 0}},
	}
	arms := []int{0, 1}
	xs := [][]float64{{3}, {3}}
	y := []float64{3, 6}
	s, err := rec.EvaluatePooled(arms, xs, y)
	if err != nil {
		t.Fatal(err)
	}
	if s.RMSE != 0 {
		t.Fatalf("pooled RMSE = %v, want 0", s.RMSE)
	}
	if _, err := rec.EvaluatePooled([]int{5}, [][]float64{{1}}, []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Fatal("out-of-range arm should be ErrBadInput")
	}
	if _, err := rec.EvaluatePooled(nil, nil, nil); !errors.Is(err, ErrBadInput) {
		t.Fatal("empty pooled eval should be ErrBadInput")
	}
}

func TestSampleRowsAndSplit(t *testing.T) {
	r := rng.New(11)
	rows := SampleRows(100, 25, r)
	if len(rows) != 25 {
		t.Fatalf("SampleRows returned %d", len(rows))
	}
	seen := map[int]bool{}
	for _, v := range rows {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatal("SampleRows produced invalid/duplicate index")
		}
		seen[v] = true
	}
	if len(SampleRows(10, 99, r)) != 10 {
		t.Fatal("oversampling should clamp to n")
	}
	if len(SampleRows(10, -5, r)) != 0 {
		t.Fatal("negative k should clamp to 0")
	}
	train, test := TrainTestSplit(10, 0.7, r)
	if len(train) != 7 || len(test) != 3 {
		t.Fatalf("split sizes = %d/%d", len(train), len(test))
	}
	train, test = TrainTestSplit(10, 2, r)
	if len(train) != 10 || len(test) != 0 {
		t.Fatal("frac > 1 should clamp")
	}
}

func TestStandardize(t *testing.T) {
	xs := [][]float64{{1, 5}, {3, 5}}
	out, means, stds := Standardize(xs)
	if means[0] != 2 || stds[1] != 1 {
		t.Fatalf("means/stds = %v/%v", means, stds)
	}
	if out[0][0] != -1 || out[1][0] != 1 {
		t.Fatalf("standardized = %v", out)
	}
	// Zero-variance column must pass through shifted but not scaled.
	if out[0][1] != 0 {
		t.Fatalf("zero-variance column = %v", out[0][1])
	}
	o, m, s := Standardize(nil)
	if o != nil || m != nil || s != nil {
		t.Fatal("empty input should return nils")
	}
}

// TestArmsUpdateRefusesOverflowingModel: a finite but huge target over a
// weakly informed direction would solve to an infinite weight (and NaN
// predictions at x = 0). Arms.Update refuses it with ErrBadInput and
// leaves the arm, window included, as it was; the next ordinary
// observation is accepted.
func TestArmsUpdateRefusesOverflowingModel(t *testing.T) {
	for _, window := range []int{0, 3} {
		a, err := NewArms(1, 1, 0, 1, window)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []float64{2, 4, 6} {
			if err := a.Update(0, []float64{x}, 3*x+5); err != nil {
				t.Fatal(err)
			}
		}
		before := a.At(0).Model()
		_, _, xs, ys := a.Adaptation()
		var wantXs, wantYs string
		if window > 0 {
			wantXs, wantYs = fmt.Sprint(xs[0]), fmt.Sprint(ys[0])
		}
		if err := a.Update(0, []float64{1.4e-76}, 1.75e308); !errors.Is(err, ErrBadInput) {
			t.Fatalf("window %d: err = %v, want ErrBadInput", window, err)
		}
		after := a.At(0).Model()
		if !reflect.DeepEqual(after, before) || a.At(0).N() != 3 {
			t.Fatalf("window %d: refused update moved the model from %+v to %+v", window, before, after)
		}
		if _, _, xs, ys := a.Adaptation(); window > 0 && (fmt.Sprint(xs[0]) != wantXs || fmt.Sprint(ys[0]) != wantYs) {
			t.Fatalf("window %d: refused update moved the window to %v %v", window, xs[0], ys[0])
		}
		if err := a.Update(0, []float64{8}, 29); err != nil {
			t.Fatalf("window %d: ordinary update after a refusal: %v", window, err)
		}
	}
}

package workloads

import (
	"math"
	"testing"

	"banditware/internal/rng"
	"banditware/internal/stats"
)

func TestGenerateCyclesDefaults(t *testing.T) {
	d, err := GenerateCycles(CyclesOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Runs) != 80 {
		t.Fatalf("runs = %d, want the paper's 80", len(d.Runs))
	}
	if len(d.Hardware) != 4 {
		t.Fatalf("hardware = %d, want 4 synthetic settings", len(d.Hardware))
	}
	if d.Dim() != 1 || d.FeatureNames[0] != "num_tasks" {
		t.Fatalf("features = %v", d.FeatureNames)
	}
	for _, r := range d.Runs {
		if r.Features[0] < 100 || r.Features[0] > 500 {
			t.Fatalf("num_tasks %v outside [100, 500]", r.Features[0])
		}
	}
}

func TestCyclesTradeoffStructure(t *testing.T) {
	d, err := GenerateCycles(CyclesOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 3 structure: best hardware shifts with workflow
	// size. Small workflows → H0, large → H3.
	if got := d.BestArm([]float64{90}, 0, 0); got != 0 {
		t.Fatalf("best arm at 90 tasks = %d, want 0", got)
	}
	if got := d.BestArm([]float64{500}, 0, 0); got != 3 {
		t.Fatalf("best arm at 500 tasks = %d, want 3", got)
	}
	// Makespans stay in Figure 3's 0–3100 s range (noise-free).
	for _, tasks := range []float64{100, 300, 500} {
		for arm := range d.Hardware {
			rt := d.Truth(arm, []float64{tasks})
			if rt < 0 || rt > 3200 {
				t.Fatalf("truth(%d, %v) = %v outside Figure 3 range", arm, tasks, rt)
			}
		}
	}
}

func TestCyclesOptionsValidation(t *testing.T) {
	if _, err := GenerateCycles(CyclesOptions{TaskChoices: []int{100, -5}}); err == nil {
		t.Fatal("non-positive task choice should fail")
	}
	if _, err := GenerateCycles(CyclesOptions{NumRuns: -1}); err == nil {
		t.Fatal("negative runs should fail")
	}
}

func TestCyclesTaskChoices(t *testing.T) {
	d, err := GenerateCycles(CyclesOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Default trace uses the paper's two workflow sizes.
	seen := map[float64]bool{}
	for _, r := range d.Runs {
		seen[r.Features[0]] = true
	}
	if len(seen) != 2 || !seen[100] || !seen[500] {
		t.Fatalf("task sizes = %v, want {100, 500}", seen)
	}
	// Custom choices are honoured.
	d2, err := GenerateCycles(CyclesOptions{Seed: 3, TaskChoices: []int{200, 300, 400}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range d2.Runs {
		v := r.Features[0]
		if v != 200 && v != 300 && v != 400 {
			t.Fatalf("unexpected task size %v", v)
		}
	}
}

func TestGenerateBP3DDefaults(t *testing.T) {
	d, err := GenerateBP3D(BP3DOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Runs) != 1316 {
		t.Fatalf("runs = %d, want the paper's 1316", len(d.Runs))
	}
	if len(d.Hardware) != 3 {
		t.Fatalf("hardware = %d, want the NDP 3", len(d.Hardware))
	}
	if d.Dim() != 7 {
		t.Fatalf("features = %d, want Table 1's 7", d.Dim())
	}
	// Runtime scale: Figure 6 spans roughly 0–7·10⁴ seconds.
	_, y, _ := d.Pooled()
	if m := stats.Max(y); m < 4e4 || m > 2e5 {
		t.Fatalf("max runtime = %v, want ~7e4 scale", m)
	}
}

func TestBP3DHardwareNearIdentical(t *testing.T) {
	d, err := GenerateBP3D(BP3DOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's core negative result depends on the arms being nearly
	// identical: the max spread of true runtimes across arms must be far
	// below the noise σ.
	x := d.Runs[0].Features
	truths := make([]float64, len(d.Hardware))
	for i := range truths {
		truths[i] = d.Truth(i, x)
	}
	spread := stats.Max(truths) - stats.Min(truths)
	if spread > d.Noise(0, x)/5 {
		t.Fatalf("hardware spread %v not << noise %v", spread, d.Noise(0, x))
	}
}

func TestBP3DAreaDominates(t *testing.T) {
	d, err := GenerateBP3D(BP3DOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Doubling the area must move the runtime far more than doubling any
	// other feature (the property that makes the paper's area-only fits
	// reasonable).
	x := append([]float64(nil), d.Runs[0].Features...)
	base := d.Truth(0, x)
	areaIdx := d.FeatureIndex("area")
	xa := append([]float64(nil), x...)
	xa[areaIdx] *= 2
	areaDelta := math.Abs(d.Truth(0, xa) - base)
	for j, name := range d.FeatureNames {
		if name == "area" {
			continue
		}
		xj := append([]float64(nil), x...)
		xj[j] *= 2
		if delta := math.Abs(d.Truth(0, xj) - base); delta > areaDelta/2 {
			t.Fatalf("feature %s delta %v rivals area delta %v", name, delta, areaDelta)
		}
	}
}

func TestGenerateMatMulDefaults(t *testing.T) {
	d, err := GenerateMatMul(MatMulOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Runs) != 2520 {
		t.Fatalf("runs = %d, want the paper's 2520", len(d.Runs))
	}
	if len(d.Hardware) != 5 {
		t.Fatalf("hardware = %d, want 5 (random accuracy 0.2)", len(d.Hardware))
	}
	sizeIdx := d.FeatureIndex("size")
	small := 0
	for _, r := range d.Runs {
		if r.Features[sizeIdx] < 5000 {
			small++
		}
	}
	if small != 1800 {
		t.Fatalf("small runs = %d, want the paper's 1800", small)
	}
}

func TestMatMulRuntimeCalibration(t *testing.T) {
	d, err := GenerateMatMul(MatMulOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: size < 5000 tops out around a minute on the slowest arm.
	t5000 := d.Truth(0, []float64{4999, 0, 0, 0})
	if t5000 > 75 {
		t.Fatalf("size-5000 slowest runtime = %v s, want <= ~60", t5000)
	}
	// Paper: the largest runs approach 30 minutes.
	t12500 := d.Truth(0, []float64{12500, 0, 0, 0})
	if t12500 < 900 || t12500 > 1900 {
		t.Fatalf("size-12500 slowest runtime = %v s, want ~20–30 min", t12500)
	}
	// More cores must be faster for large matrices.
	fast := d.Truth(4, []float64{12500, 0, 0, 0})
	if fast >= t12500/3 {
		t.Fatalf("16-core runtime %v not clearly faster than 2-core %v", fast, t12500)
	}
	// Tiny matrices must be nearly hardware-insensitive relative to the
	// ~1.2 s scheduling jitter: the spread across arms stays within a few
	// seconds, and the small-size ordering (driven by per-arm scheduling
	// overhead) does NOT follow core count.
	small0 := d.Truth(0, []float64{250, 0.5, 0, 0})
	small1 := d.Truth(1, []float64{250, 0.5, 0, 0})
	small4 := d.Truth(4, []float64{250, 0.5, 0, 0})
	if math.Abs(small0-small4) > 4 {
		t.Fatalf("small-matrix spread = %v s, want ~seconds", small0-small4)
	}
	if small1 >= small0 {
		t.Fatal("small-size ordering should be overhead-driven, not core-driven")
	}
}

func TestMatMulSubset(t *testing.T) {
	d, err := GenerateMatMul(MatMulOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sub := MatMulSubset(d, 5000)
	if len(sub.Runs) != 720 {
		t.Fatalf("subset runs = %d, want 720", len(sub.Runs))
	}
	sizeIdx := sub.FeatureIndex("size")
	for _, r := range sub.Runs {
		if r.Features[sizeIdx] < 5000 {
			t.Fatal("subset contains small run")
		}
	}
}

func TestDatasetValidate(t *testing.T) {
	d, err := GenerateCycles(CyclesOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *d
	bad.Runs = nil
	if err := bad.Validate(); err != ErrEmptyDataset {
		t.Fatal("empty runs should be ErrEmptyDataset")
	}
	bad = *d
	bad.Runs = append([]Run(nil), d.Runs...)
	bad.Runs[0].Arm = 99
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range arm should fail validation")
	}
	bad = *d
	bad.Runs = append([]Run(nil), d.Runs...)
	bad.Runs[0].Runtime = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Fatal("NaN runtime should fail validation")
	}
	bad = *d
	bad.Truth = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("missing truth should fail validation")
	}
}

func TestSelectFeatures(t *testing.T) {
	d, err := GenerateBP3D(BP3DOptions{Seed: 10, NumRuns: 100})
	if err != nil {
		t.Fatal(err)
	}
	area, err := d.SelectFeatures("area")
	if err != nil {
		t.Fatal(err)
	}
	if area.Dim() != 1 || len(area.Runs) != 100 {
		t.Fatalf("area-only dataset shape: dim %d, runs %d", area.Dim(), len(area.Runs))
	}
	// The reduced truth must respond to area.
	lo := area.Truth(0, []float64{1e6})
	hi := area.Truth(0, []float64{2e6})
	if hi <= lo {
		t.Fatal("area-only truth not increasing in area")
	}
	if _, err := d.SelectFeatures("bogus"); err == nil {
		t.Fatal("unknown feature should fail")
	}
}

func TestByArmAndPooled(t *testing.T) {
	d, err := GenerateCycles(CyclesOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	xs, y := d.ByArm()
	total := 0
	for i := range xs {
		if len(xs[i]) != len(y[i]) {
			t.Fatal("per-arm feature/target mismatch")
		}
		total += len(xs[i])
	}
	if total != len(d.Runs) {
		t.Fatalf("ByArm row conservation: %d != %d", total, len(d.Runs))
	}
	px, py, parms := d.Pooled()
	if len(px) != len(d.Runs) || len(py) != len(d.Runs) || len(parms) != len(d.Runs) {
		t.Fatal("Pooled length mismatch")
	}
}

func TestBestArmTolerance(t *testing.T) {
	d, err := GenerateCycles(CyclesOptions{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// At 300 tasks, H3 (truth 1350) beats H2 (truth 1400) by 50 s. With a
	// 100-second tolerance the envelope includes H2; efficiency then
	// prefers the smaller H2 (cost 10 vs H3 cost 16).
	strict := d.BestArm([]float64{300}, 0, 0)
	if strict != 3 {
		t.Fatalf("strict best at 300 = %d, want 3", strict)
	}
	tolerant := d.BestArm([]float64{300}, 0, 100)
	if tolerant != 2 {
		t.Fatalf("tolerant best at 300 = %d, want 2", tolerant)
	}
}

func TestSampleRuntimeDistribution(t *testing.T) {
	d, err := GenerateCycles(CyclesOptions{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(99)
	x := []float64{250}
	var w stats.Welford
	for i := 0; i < 5000; i++ {
		w.Add(d.SampleRuntime(1, x, r))
	}
	want := d.Truth(1, x)
	if math.Abs(w.Mean()-want) > 5 {
		t.Fatalf("sample mean %v, want ~%v", w.Mean(), want)
	}
	if math.Abs(w.StdDev()-25) > 3 {
		t.Fatalf("sample std %v, want ~25", w.StdDev())
	}
}

func TestKernelSpecValidation(t *testing.T) {
	if err := (MatMulSpec{Size: 0}).Validate(); err == nil {
		t.Fatal("zero size should fail")
	}
	if err := (MatMulSpec{Size: 4, Sparsity: 1}).Validate(); err == nil {
		t.Fatal("sparsity 1 should fail")
	}
	if err := (MatMulSpec{Size: 4, MinValue: 5, MaxValue: 1}).Validate(); err == nil {
		t.Fatal("inverted value range should fail")
	}
}

func TestGenerateMatrixSparsity(t *testing.T) {
	spec := MatMulSpec{Size: 100, Sparsity: 0.7, MinValue: 1, MaxValue: 5, Seed: 14}
	m, err := GenerateMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range m.Data {
		if v == 0 {
			zeros++
		} else if v < 1 || v > 5 {
			t.Fatalf("entry %v outside [1, 5]", v)
		}
	}
	frac := float64(zeros) / float64(len(m.Data))
	if math.Abs(frac-0.7) > 0.05 {
		t.Fatalf("zero fraction = %v, want ~0.7", frac)
	}
}

func TestRunMatMulKernel(t *testing.T) {
	res, err := RunMatMulKernel(MatMulSpec{
		Size: 64, Sparsity: 0.2, MinValue: -3, MaxValue: 3, Workers: 2, Seed: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("kernel reported non-positive elapsed time")
	}
	if res.Checksum <= 0 {
		t.Fatal("kernel checksum zero — computation elided?")
	}
	if _, err := RunMatMulKernel(MatMulSpec{Size: -1}); err == nil {
		t.Fatal("invalid spec should fail")
	}
}

func TestFilterPreservesTruth(t *testing.T) {
	d, err := GenerateMatMul(MatMulOptions{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	sub := MatMulSubset(d, 5000)
	x := sub.Runs[0].Features
	if sub.Truth(0, x) != d.Truth(0, x) {
		t.Fatal("Filter changed the ground truth")
	}
}

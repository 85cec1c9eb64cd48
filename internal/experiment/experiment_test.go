package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"banditware/internal/core"
	"banditware/internal/hardware"
	"banditware/internal/policy"
	"banditware/internal/workloads"
)

func smallCycles(t *testing.T) *workloads.Dataset {
	t.Helper()
	d, err := workloads.GenerateCycles(workloads.CyclesOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunBanditShapeAndDeterminism(t *testing.T) {
	cfg := BanditConfig{
		Dataset: smallCycles(t),
		Options: core.Options{},
		NRounds: 20,
		NSim:    4,
		Seed:    7,
	}
	res1, err := RunBandit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Rounds) != 20 {
		t.Fatalf("rounds = %d, want 20", len(res1.Rounds))
	}
	if res1.RandomAccuracy != 0.25 {
		t.Fatalf("random accuracy = %v, want 1/4", res1.RandomAccuracy)
	}
	if len(res1.FinalModels) != 4 {
		t.Fatalf("final models = %d, want 4", len(res1.FinalModels))
	}
	// Determinism: same config, same output.
	res2, err := RunBandit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Rounds {
		if res1.Rounds[i] != res2.Rounds[i] {
			t.Fatalf("round %d not deterministic", i)
		}
	}
}

func TestRunBanditConvergesOnCycles(t *testing.T) {
	// The paper's core claim (Figure 4a): within tens of rounds the
	// bandit's RMSE approaches the full-fit baseline.
	cfg := BanditConfig{
		Dataset: smallCycles(t),
		Options: core.Options{},
		NRounds: 100,
		NSim:    10,
		Seed:    11,
	}
	res, err := RunBandit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	early := res.Rounds[2].RMSEMean
	late := res.Rounds[len(res.Rounds)-1].RMSEMean
	if late >= early {
		t.Fatalf("RMSE did not improve: round 3 %v vs final %v", early, late)
	}
	// Final RMSE within 3x of baseline (paper: matches baseline with ~20
	// samples; the looser bound keeps the test robust to seeds).
	if late > 3*res.BaselineRMSE {
		t.Fatalf("final RMSE %v far above baseline %v", late, res.BaselineRMSE)
	}
	// Accuracy should end well above random (0.25) on this separable
	// dataset.
	finalAcc := res.Rounds[len(res.Rounds)-1].AccMean
	if finalAcc < 0.5 {
		t.Fatalf("final accuracy %v, want > 0.5", finalAcc)
	}
}

func TestRunBanditValidation(t *testing.T) {
	d := smallCycles(t)
	if _, err := RunBandit(BanditConfig{Dataset: nil, NRounds: 1, NSim: 1}); err == nil {
		t.Fatal("nil dataset should fail")
	}
	if _, err := RunBandit(BanditConfig{Dataset: d, NRounds: 0, NSim: 1}); err == nil {
		t.Fatal("zero rounds should fail")
	}
	if _, err := RunBandit(BanditConfig{Dataset: d, NRounds: 1, NSim: 0}); err == nil {
		t.Fatal("zero sims should fail")
	}
}

func TestAccuracySampling(t *testing.T) {
	cfg := BanditConfig{
		Dataset:        smallCycles(t),
		Options:        core.Options{},
		NRounds:        10,
		NSim:           2,
		Seed:           3,
		AccuracySample: 20,
	}
	res, err := RunBandit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rounds {
		if r.AccMean < 0 || r.AccMean > 1 {
			t.Fatalf("accuracy %v outside [0,1]", r.AccMean)
		}
	}
}

func TestBP3DAccuracyNearRandom(t *testing.T) {
	// The paper's Experiment 2 negative result: with near-identical
	// hardware, accuracy hovers near 1/3 regardless of training.
	d, err := workloads.GenerateBP3D(workloads.BP3DOptions{Seed: 5, NumRuns: 300})
	if err != nil {
		t.Fatal(err)
	}
	cfg := BanditConfig{
		Dataset: d,
		Options: core.Options{},
		NRounds: 50,
		NSim:    6,
		Seed:    5,
	}
	res, err := RunBandit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := res.Rounds[len(res.Rounds)-1].AccMean
	if final > 0.65 {
		t.Fatalf("BP3D accuracy %v suspiciously high for near-identical arms", final)
	}
	// The baseline itself is also near random — that is the point.
	if res.BaselineAccuracy > 0.8 {
		t.Fatalf("BP3D baseline accuracy %v should also be noise-limited", res.BaselineAccuracy)
	}
}

func TestRunLinRegDefaults(t *testing.T) {
	res, err := RunLinReg(LinRegConfig{Dataset: smallCycles(t), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RMSE) != 100 || len(res.R2) != 100 {
		t.Fatalf("distribution sizes %d/%d, want 100 each", len(res.RMSE), len(res.R2))
	}
	sum, err := res.RMSESummary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Min < 0 {
		t.Fatal("negative RMSE")
	}
	if _, err := res.R2Summary(); err != nil {
		t.Fatal(err)
	}
}

func TestRunLinRegNormalized(t *testing.T) {
	d, err := workloads.GenerateBP3D(workloads.BP3DOptions{Seed: 9, NumRuns: 400})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLinReg(LinRegConfig{Dataset: d, NModels: 30, TrainN: 25, Normalize: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Normalised RMSE for 25-sample BP3D fits should sit in the paper's
	// sub-2.0 band (Figure 5 shows ~0.5–0.9).
	sum, _ := res.RMSESummary()
	if sum.Median > 3 {
		t.Fatalf("normalised RMSE median = %v, want O(1)", sum.Median)
	}
}

func TestRunLinRegValidation(t *testing.T) {
	if _, err := RunLinReg(LinRegConfig{}); err == nil {
		t.Fatal("nil dataset should fail")
	}
	if _, err := RunLinReg(LinRegConfig{Dataset: smallCycles(t), NModels: -1}); err == nil {
		t.Fatal("negative NModels should fail")
	}
}

func TestRunFit(t *testing.T) {
	d := smallCycles(t)
	series, res, err := RunFit(FitConfig{
		Bandit: BanditConfig{
			Dataset: d,
			Options: core.Options{},
			NRounds: 60,
			NSim:    1,
			Seed:    13,
		},
		Feature: "num_tasks",
		Lo:      100, Hi: 500, Steps: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(series) != 4 {
		t.Fatalf("series = %d, want 4", len(series))
	}
	for _, s := range series {
		if len(s.X) != 9 || len(s.Actual) != 9 || len(s.Predicted) != 9 || len(s.FullFit) != 9 {
			t.Fatalf("series %s has ragged lengths", s.ArmName)
		}
		// Ground truth is increasing in num_tasks.
		if s.Actual[8] <= s.Actual[0] {
			t.Fatalf("series %s actual not increasing", s.ArmName)
		}
		// The full fit should track the truth closely (low noise).
		for i := range s.X {
			if math.Abs(s.FullFit[i]-s.Actual[i]) > 200 {
				t.Fatalf("series %s full fit off truth by %v at %v",
					s.ArmName, s.FullFit[i]-s.Actual[i], s.X[i])
			}
		}
	}
}

func TestRunFitValidation(t *testing.T) {
	d := smallCycles(t)
	base := BanditConfig{Dataset: d, NRounds: 5, NSim: 1, Seed: 1}
	if _, _, err := RunFit(FitConfig{Bandit: base, Feature: "bogus", Lo: 0, Hi: 1, Steps: 3}); err == nil {
		t.Fatal("unknown feature should fail")
	}
	if _, _, err := RunFit(FitConfig{Bandit: base, Feature: "num_tasks", Lo: 0, Hi: 1, Steps: 1}); err == nil {
		t.Fatal("single-step sweep should fail")
	}
	if _, _, err := RunFit(FitConfig{Bandit: base, Feature: "num_tasks", Lo: 5, Hi: 5, Steps: 3}); err == nil {
		t.Fatal("empty sweep should fail")
	}
}

func TestRunSweepOrderingAndOracle(t *testing.T) {
	d := smallCycles(t)
	cfg := SweepConfig{
		Dataset: d,
		NRounds: 80,
		NSim:    3,
		Seed:    17,
		Policies: map[string]PolicyFactory{
			"oracle": func(numArms, dim int, seed uint64) (policy.Policy, error) {
				return policy.NewOracle(numArms, dim, d.Truth)
			},
			"random": func(numArms, dim int, seed uint64) (policy.Policy, error) {
				return policy.NewRandom(numArms, dim, seed)
			},
			"algorithm1": func(numArms, dim int, seed uint64) (policy.Policy, error) {
				return policy.NewDecayingEpsilonGreedy(d.Hardware, dim, core.Options{Seed: seed})
			},
		},
	}
	rows, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byName := map[string]SweepRow{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	// Oracle: perfect accuracy, zero regret.
	if byName["oracle"].FinalAccuracy != 1 || byName["oracle"].MeanRegret > 1e-9 {
		t.Fatalf("oracle row = %+v", byName["oracle"])
	}
	// Random must have positive regret, above the oracle's.
	if byName["random"].MeanRegret <= byName["oracle"].MeanRegret {
		t.Fatal("random regret should exceed oracle regret")
	}
	// Algorithm 1 should beat random on both accuracy and regret.
	if byName["algorithm1"].FinalAccuracy <= byName["random"].FinalAccuracy {
		t.Fatalf("algorithm1 accuracy %v not above random %v",
			byName["algorithm1"].FinalAccuracy, byName["random"].FinalAccuracy)
	}
	if byName["algorithm1"].MeanRegret >= byName["random"].MeanRegret {
		t.Fatalf("algorithm1 regret %v not below random %v",
			byName["algorithm1"].MeanRegret, byName["random"].MeanRegret)
	}
}

func TestRunSweepValidation(t *testing.T) {
	d := smallCycles(t)
	if _, err := RunSweep(SweepConfig{Dataset: d, NRounds: 1, NSim: 1}); err == nil {
		t.Fatal("no policies should fail")
	}
	if _, err := RunSweep(SweepConfig{Dataset: nil, NRounds: 1, NSim: 1}); err == nil {
		t.Fatal("nil dataset should fail")
	}
}

func TestRunToleranceGrid(t *testing.T) {
	d, err := workloads.GenerateMatMul(workloads.MatMulOptions{Seed: 6, RepsSmall: 2, RepsLarge: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := BanditConfig{
		Dataset: d,
		Options: core.Options{},
		NRounds: 15,
		NSim:    2,
		Seed:    19,
	}
	points, err := RunToleranceGrid(base, []float64{0, 0.05}, []float64{0, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("grid points = %d, want 4", len(points))
	}
	cost := map[string]float64{}
	for _, p := range points {
		cost[p.Label] = p.MeanCost
	}
	// More tolerance must never increase the selected-hardware cost: the
	// envelope only grows, and efficiency picks the cheapest inside it.
	if cost["tr=0,ts=20"] > cost["tr=0,ts=0"]+1e-9 {
		t.Fatalf("seconds tolerance raised cost: %v > %v", cost["tr=0,ts=20"], cost["tr=0,ts=0"])
	}
	if cost["tr=0.05,ts=0"] > cost["tr=0,ts=0"]+1e-9 {
		t.Fatalf("ratio tolerance raised cost: %v > %v", cost["tr=0.05,ts=0"], cost["tr=0,ts=0"])
	}
}

func TestOutputWriters(t *testing.T) {
	cfg := BanditConfig{Dataset: smallCycles(t), NRounds: 5, NSim: 2, Seed: 1}
	res, err := RunBandit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRoundsCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("rounds csv lines = %d, want 6", len(lines))
	}
	md := MarkdownRounds(res, nil)
	if !strings.Contains(md, "Baseline (full fit)") {
		t.Fatal("markdown missing baseline line")
	}
	series, _, err := RunFit(FitConfig{
		Bandit:  BanditConfig{Dataset: smallCycles(t), NRounds: 5, NSim: 1, Seed: 1},
		Feature: "num_tasks", Lo: 100, Hi: 500, Steps: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteFitCSV(&buf, series, "num_tasks"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hardware,num_tasks") {
		t.Fatal("fit csv missing header")
	}
	buf.Reset()
	if err := WriteSweepCSV(&buf, []SweepRow{{Policy: "x", FinalAccuracy: 1}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "policy,final_accuracy") {
		t.Fatal("sweep csv missing header")
	}
}

func TestHardwareSeparabilityDrivesAccuracy(t *testing.T) {
	// Integration check across workloads: separable hardware (cycles)
	// must yield materially higher accuracy than near-identical hardware
	// (bp3d) under the same protocol — the paper's headline contrast.
	cycles := smallCycles(t)
	bp3d, err := workloads.GenerateBP3D(workloads.BP3DOptions{Seed: 23, NumRuns: 200})
	if err != nil {
		t.Fatal(err)
	}
	run := func(d *workloads.Dataset) float64 {
		res, err := RunBandit(BanditConfig{
			Dataset: d, Options: core.Options{}, NRounds: 60, NSim: 5, Seed: 29,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds[len(res.Rounds)-1].AccMean
	}
	accCycles := run(cycles)
	accBP3D := run(bp3d)
	if accCycles <= accBP3D {
		t.Fatalf("cycles accuracy %v not above bp3d %v", accCycles, accBP3D)
	}
}

var _ = hardware.NDPDefault // keep the import for helper extensions

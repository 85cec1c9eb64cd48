// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index), plus
// ablation benches for the design choices the paper calls out. Each
// benchmark runs a reduced-size configuration of the corresponding
// experiment and reports the headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both exercises every reproduction path and surfaces the reproduced
// numbers. cmd/bwbench runs the full-size versions.
package banditware

import (
	"io"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"banditware/internal/core"
	"banditware/internal/experiment"
	"banditware/internal/linalg"
	"banditware/internal/policy"
	"banditware/internal/rng"
	"banditware/internal/workloads"
)

// benchCycles / benchBP3D / benchMatMul memoise the generated traces so
// benchmark iterations measure the experiment, not trace generation.
var (
	benchCyclesTrace *workloads.Dataset
	benchBP3DTrace   *workloads.Dataset
	benchMatMulTrace *workloads.Dataset
)

func cyclesTrace(b *testing.B) *workloads.Dataset {
	b.Helper()
	if benchCyclesTrace == nil {
		d, err := workloads.GenerateCycles(workloads.CyclesOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchCyclesTrace = d
	}
	return benchCyclesTrace
}

func bp3dTrace(b *testing.B) *workloads.Dataset {
	b.Helper()
	if benchBP3DTrace == nil {
		d, err := workloads.GenerateBP3D(workloads.BP3DOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchBP3DTrace = d
	}
	return benchBP3DTrace
}

func matmulTrace(b *testing.B) *workloads.Dataset {
	b.Helper()
	if benchMatMulTrace == nil {
		d, err := workloads.GenerateMatMul(workloads.MatMulOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchMatMulTrace = d
	}
	return benchMatMulTrace
}

// runBanditBench runs a bandit experiment per iteration and reports the
// final accuracy and RMSE-vs-baseline ratio.
func runBanditBench(b *testing.B, d *workloads.Dataset, opts core.Options, rounds int) {
	b.Helper()
	var last experiment.RoundStats
	var baseline float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunBandit(experiment.BanditConfig{
			Dataset:        d,
			Options:        opts,
			NRounds:        rounds,
			NSim:           2,
			Seed:           uint64(i + 1),
			AccuracySample: 300,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Rounds[len(res.Rounds)-1]
		baseline = res.BaselineRMSE
	}
	b.ReportMetric(last.AccMean, "final-accuracy")
	if baseline > 0 {
		b.ReportMetric(last.RMSEMean/baseline, "rmse-vs-baseline")
	}
}

// BenchmarkFig1MergePipeline — Figure 1: per-hardware tables → merge →
// useful-column CSV.
func BenchmarkFig1MergePipeline(b *testing.B) {
	d := bp3dTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := workloads.Concat(d.PerArm()...)
		if len(merged.Runs) != len(d.Runs) {
			b.Fatal("merge lost rows")
		}
		if err := merged.WriteCSV(io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2EpsilonGreedy — Figure 2: the classic ε-greedy
// slot-machine bandit (non-contextual).
func BenchmarkFig2EpsilonGreedy(b *testing.B) {
	payouts := []float64{0.3, 0.55, 0.45, 0.7}
	var finalAvg float64
	for i := 0; i < b.N; i++ {
		p, err := policy.NewFixedEpsilonGreedy(len(payouts), 0, 0.1, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(uint64(i + 2))
		cum := 0.0
		const rounds = 1000
		for t := 0; t < rounds; t++ {
			arm, err := p.Select(nil)
			if err != nil {
				b.Fatal(err)
			}
			reward := 0.0
			if r.Bernoulli(payouts[arm]) {
				reward = 1
			}
			if err := p.Update(arm, nil, -reward); err != nil {
				b.Fatal(err)
			}
			cum += reward
		}
		finalAvg = cum / rounds
	}
	b.ReportMetric(finalAvg, "avg-reward")
}

// BenchmarkFig3CyclesFit — Figure 3: per-hardware fit overlay on the
// Cycles trace.
func BenchmarkFig3CyclesFit(b *testing.B) {
	d := cyclesTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, _, err := experiment.RunFit(experiment.FitConfig{
			Bandit: experiment.BanditConfig{
				Dataset: d, Options: core.Options{}, NRounds: 100, NSim: 1, Seed: uint64(i + 1),
			},
			Feature: "num_tasks", Lo: 100, Hi: 500, Steps: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 4 {
			b.Fatal("expected 4 hardware series")
		}
	}
}

// BenchmarkFig4aCyclesRMSE — Figure 4a: Cycles RMSE over rounds.
func BenchmarkFig4aCyclesRMSE(b *testing.B) {
	runBanditBench(b, cyclesTrace(b), core.Options{}, 100)
}

// BenchmarkFig4bCyclesAccuracy — Figure 4b: Cycles accuracy with the
// paper's 20-second tolerance.
func BenchmarkFig4bCyclesAccuracy(b *testing.B) {
	runBanditBench(b, cyclesTrace(b), core.Options{ToleranceSeconds: 20}, 100)
}

// BenchmarkTable1BP3DSchema — Table 1: the BP3D feature schema drives
// trace generation.
func BenchmarkTable1BP3DSchema(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := workloads.GenerateBP3D(workloads.BP3DOptions{Seed: uint64(i + 1), NumRuns: 200})
		if err != nil {
			b.Fatal(err)
		}
		if d.Dim() != len(workloads.BP3DFeatureNames) {
			b.Fatal("schema mismatch")
		}
	}
}

// BenchmarkFig5BP3DLinReg — Figure 5: 100 linear-regression recommenders
// on 25 BP3D samples (all features vs area only).
func BenchmarkFig5BP3DLinReg(b *testing.B) {
	d := bp3dTrace(b)
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunLinReg(experiment.LinRegConfig{
			Dataset: d, NModels: 20, TrainN: 25,
			Normalize: true, ScaleFeatures: true, Pooled: true, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		s, err := res.RMSESummary()
		if err != nil {
			b.Fatal(err)
		}
		mean = s.Mean
	}
	b.ReportMetric(mean, "nrmse-mean")
}

// BenchmarkFig6BP3DFit — Figure 6: bandit fit vs baseline along the area
// sweep.
func BenchmarkFig6BP3DFit(b *testing.B) {
	d := bp3dTrace(b)
	area, err := d.SelectFeatures("area")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := experiment.RunFit(experiment.FitConfig{
			Bandit: experiment.BanditConfig{
				Dataset: area, Options: core.Options{}, NRounds: 50, NSim: 1, Seed: uint64(i + 1),
			},
			Feature: "area", Lo: 0.9e6, Hi: 2.6e6, Steps: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7BP3DOverTime — Figure 7: BP3D RMSE/accuracy over 50
// rounds with all features.
func BenchmarkFig7BP3DOverTime(b *testing.B) {
	runBanditBench(b, bp3dTrace(b), core.Options{}, 50)
}

// BenchmarkFig8MatMulLinReg — Figure 8: linreg score distributions on
// the matmul trace, full vs truncated.
func BenchmarkFig8MatMulLinReg(b *testing.B) {
	d := matmulTrace(b)
	sizeOnly, err := d.SelectFeatures("size")
	if err != nil {
		b.Fatal(err)
	}
	trunc := workloads.MatMulSubset(sizeOnly, 5000)
	var r2 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunLinReg(experiment.LinRegConfig{
			Dataset: trunc, NModels: 20, TrainN: 200, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		s, err := res.R2Summary()
		if err != nil {
			b.Fatal(err)
		}
		r2 = s.Mean
	}
	b.ReportMetric(r2, "r2-mean")
}

func matmulSizeOnly(b *testing.B, subset bool) *workloads.Dataset {
	b.Helper()
	d, err := matmulTrace(b).SelectFeatures("size")
	if err != nil {
		b.Fatal(err)
	}
	if subset {
		d = workloads.MatMulSubset(d, 5000)
	}
	return d
}

// BenchmarkFig9MatMulFull — Figure 9: full matmul dataset, no tolerance.
func BenchmarkFig9MatMulFull(b *testing.B) {
	runBanditBench(b, matmulSizeOnly(b, false), core.Options{}, 80)
}

// BenchmarkFig10MatMulSubset — Figure 10: size ≥ 5000 subset, no
// tolerance.
func BenchmarkFig10MatMulSubset(b *testing.B) {
	runBanditBench(b, matmulSizeOnly(b, true), core.Options{}, 80)
}

// BenchmarkFig11MatMulTolerance — Figure 11: full dataset with
// tolerance_seconds = 20.
func BenchmarkFig11MatMulTolerance(b *testing.B) {
	runBanditBench(b, matmulSizeOnly(b, false), core.Options{ToleranceSeconds: 20}, 80)
}

// BenchmarkFig12MatMulRatio — Figure 12: subset with tolerance_ratio 5%.
func BenchmarkFig12MatMulRatio(b *testing.B) {
	runBanditBench(b, matmulSizeOnly(b, true), core.Options{ToleranceRatio: 0.05}, 80)
}

// --- ablations beyond the paper -------------------------------------

// BenchmarkAblationDecay sweeps the ε decay factor α.
func BenchmarkAblationDecay(b *testing.B) {
	for _, alpha := range []float64{0.9, 0.99, 1.0} {
		b.Run(floatName("alpha", alpha), func(b *testing.B) {
			runBanditBench(b, cyclesTrace(b), core.Options{Alpha: alpha}, 60)
		})
	}
}

// BenchmarkAblationEpsilon0 sweeps the initial exploration rate.
func BenchmarkAblationEpsilon0(b *testing.B) {
	for _, eps := range []float64{0.1, 0.5, 1.0} {
		b.Run(floatName("eps0", eps), func(b *testing.B) {
			runBanditBench(b, cyclesTrace(b), core.Options{Epsilon0: eps}, 60)
		})
	}
}

// BenchmarkAblationTolerance sweeps the tolerance knobs on the matmul
// trace (the axis Figures 9–12 explore).
func BenchmarkAblationTolerance(b *testing.B) {
	cases := []struct {
		name   string
		tr, ts float64
	}{
		{"none", 0, 0},
		{"ts20", 0, 20},
		{"tr5pct", 0.05, 0},
	}
	d := matmulSizeOnly(b, false)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			runBanditBench(b, d, core.Options{ToleranceRatio: c.tr, ToleranceSeconds: c.ts}, 60)
		})
	}
}

// BenchmarkAblationPolicies compares Algorithm 1 against the
// alternative contextual-bandit policies (the paper's future-work axis).
func BenchmarkAblationPolicies(b *testing.B) {
	d := cyclesTrace(b)
	factories := map[string]experiment.PolicyFactory{
		"algorithm1": func(n, dim int, seed uint64) (policy.Policy, error) {
			return policy.NewDecayingEpsilonGreedy(d.Hardware, dim, core.Options{Seed: seed})
		},
		"linucb": func(n, dim int, seed uint64) (policy.Policy, error) {
			return policy.NewLinUCB(n, dim, 2.0)
		},
		"lints": func(n, dim int, seed uint64) (policy.Policy, error) {
			return policy.NewLinTS(n, dim, 1.0, seed)
		},
		"random": func(n, dim int, seed uint64) (policy.Policy, error) {
			return policy.NewRandom(n, dim, seed)
		},
	}
	for name, factory := range factories {
		factory := factory
		b.Run(name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				rows, err := experiment.RunSweep(experiment.SweepConfig{
					Dataset: d, NRounds: 80, NSim: 2, Seed: uint64(i + 1),
					Policies: map[string]experiment.PolicyFactory{name: factory},
				})
				if err != nil {
					b.Fatal(err)
				}
				acc = rows[0].FinalAccuracy
			}
			b.ReportMetric(acc, "final-accuracy")
		})
	}
}

// BenchmarkExtensionDrift measures the non-stationarity extension: a
// forgetting bandit recovering from a mid-run hardware permutation.
func BenchmarkExtensionDrift(b *testing.B) {
	d := cyclesTrace(b)
	var recovered float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunDrift(experiment.DriftConfig{
			Dataset: d, NRounds: 240, NSim: 2, Seed: uint64(i + 1), ForgettingFactor: 0.95,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Mean of the final 20 rounds — single-round values are noisy at
		// NSim=2.
		tail := res.AccForgetting[len(res.AccForgetting)-20:]
		sum := 0.0
		for _, v := range tail {
			sum += v
		}
		recovered = sum / float64(len(tail))
	}
	b.ReportMetric(recovered, "post-drift-accuracy")
}

// BenchmarkExtensionLLM measures the GPU/LLM future-work workload.
func BenchmarkExtensionLLM(b *testing.B) {
	d, err := workloads.GenerateLLM(workloads.LLMOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	runBanditBench(b, d, core.Options{ToleranceRatio: 0.1}, 80)
}

// BenchmarkExtensionRegret measures the cumulative-regret comparison.
func BenchmarkExtensionRegret(b *testing.B) {
	d := cyclesTrace(b)
	var final float64
	for i := 0; i < b.N; i++ {
		curves, err := experiment.RunRegret(experiment.RegretConfig{
			Dataset: d, NRounds: 100, NSim: 2, Seed: uint64(i + 1),
			Policies: map[string]experiment.PolicyFactory{
				"algorithm1": func(n, dim int, seed uint64) (policy.Policy, error) {
					return policy.NewDecayingEpsilonGreedy(d.Hardware, dim, core.Options{Seed: seed})
				},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		final = curves[0].Cumulative[len(curves[0].Cumulative)-1]
	}
	b.ReportMetric(final, "final-regret-s")
}

// BenchmarkParallelExperiment measures the experiment harness's own
// multi-core scaling (simulations fan out over GOMAXPROCS workers).
func BenchmarkParallelExperiment(b *testing.B) {
	d := bp3dTrace(b)
	for _, workers := range []int{1, 4} {
		b.Run(floatName("workers", float64(workers)), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			for i := 0; i < b.N; i++ {
				_, err := experiment.RunBandit(experiment.BanditConfig{
					Dataset: d, NRounds: 25, NSim: 8, Seed: 1,
					AccuracySample: 200,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelMatMulKernel measures the real tiled kernel's scaling
// with worker count — the mechanism behind the matmul trace's hardware
// sensitivity.
func BenchmarkParallelMatMulKernel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(floatName("workers", float64(workers)), func(b *testing.B) {
			m, err := workloads.GenerateMatrix(workloads.MatMulSpec{
				Size: 256, Sparsity: 0.1, MinValue: -10, MaxValue: 10, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := linalg.Square(m, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func floatName(prefix string, v float64) string {
	return prefix + "=" + strconv.FormatFloat(v, 'g', -1, 64)
}

// --- serving-path throughput ----------------------------------------

// newBenchService builds a service with n identically configured
// streams named s0..s{n-1}, pre-trained with a few observations so the
// recommend path exercises fitted models.
func newBenchService(b *testing.B, n int) *Service {
	b.Helper()
	hw := NDPHardware()
	svc := NewService(ServiceOptions{})
	for i := 0; i < n; i++ {
		name := "s" + strconv.Itoa(i)
		if err := svc.CreateStream(name, StreamConfig{Hardware: hw, Dim: 1, Options: Options{Seed: uint64(i + 1)}}); err != nil {
			b.Fatal(err)
		}
		for j := 1; j <= 8; j++ {
			if err := svc.ObserveDirectOutcome(name, j%len(hw), []float64{float64(j)}, Outcome{Runtime: float64(3 * j)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return svc
}

// BenchmarkServiceRecommendParallel measures concurrent serving
// throughput on the sharded multi-stream service: every goroutine owns
// one stream (round-robin) and does full recommend→observe ticket round
// trips. With streams=1 all goroutines contend on one stream lock — the
// mutex-wrapper regime; more streams spread the load across per-stream
// locks.
func BenchmarkServiceRecommendParallel(b *testing.B) {
	for _, streams := range []int{1, 4, 16} {
		b.Run("streams="+strconv.Itoa(streams), func(b *testing.B) {
			svc := newBenchService(b, streams)
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				name := "s" + strconv.Itoa(int(next.Add(1)-1)%streams)
				x := []float64{42}
				for pb.Next() {
					t, err := svc.Recommend(name, x)
					if err != nil {
						b.Fatal(err)
					}
					if err := svc.Observe(t.ID, 100); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// benchSchema is the schema-encoding benchmark layout: three numeric
// fields (one bounded, one normalized each way) plus a categorical
// one-hot block — encoded dim 3 + 4 = 7.
func benchSchema(b *testing.B) *Schema {
	b.Helper()
	lo, hi := 0.0, 1e6
	sch := &Schema{Fields: []Field{
		{Name: "num_tasks", Required: true, Min: &lo, Max: &hi},
		{Name: "input_mb", Normalize: NormMinMax},
		{Name: "cpu_usage", Normalize: NormZScore},
		{Name: "site", Kind: KindCategorical, Categories: []string{"expanse", "nautilus", "tscc", "local"}},
	}}
	if err := sch.Validate(); err != nil {
		b.Fatal(err)
	}
	return sch
}

// BenchmarkSchemaEncode measures the per-request cost of the schema
// layer alone: validate + encode (with two live normalizations and a
// one-hot expansion) of one named context.
//
// Recorded baseline (PR 3, linux/amd64 Xeon @2.70GHz): ~545 ns/op,
// 1 alloc/op (the encoded vector) — see BenchmarkRecommendCtx for the
// same cost in proportion to a full recommend→observe round trip.
func BenchmarkSchemaEncode(b *testing.B) {
	sch := benchSchema(b)
	sites := []string{"expanse", "nautilus", "tscc", "local"}
	ctx := Context{
		Numeric:     map[string]float64{"num_tasks": 0, "input_mb": 0, "cpu_usage": 0},
		Categorical: map[string]string{"site": ""},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Numeric["num_tasks"] = float64(i%1000 + 1)
		ctx.Numeric["input_mb"] = float64(i%700 + 5)
		ctx.Numeric["cpu_usage"] = float64(i % 32)
		ctx.Categorical["site"] = sites[i%len(sites)]
		if _, err := sch.Encode(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendCtx measures the serving path with named contexts —
// RecommendCtx (validate + encode + select) → Observe — against the
// raw-vector path on an identically shaped (dim 7) stream, so
// schema-encoding overhead on the hot path is tracked from a recorded
// baseline (PR 3, linux/amd64 Xeon @2.70GHz: ~1.57 µs/op ctx vs
// ~1.07 µs/op raw — the encode cost from BenchmarkSchemaEncode riding
// on an in-memory round trip; any real deployment's network hop dwarfs
// it).
func BenchmarkRecommendCtx(b *testing.B) {
	mkService := func(sch *Schema, dim int) *Service {
		svc := NewService(ServiceOptions{})
		if err := svc.CreateStream("s", StreamConfig{
			Hardware: NDPHardware(), Dim: dim, Schema: sch, Options: Options{Seed: 1},
		}); err != nil {
			b.Fatal(err)
		}
		return svc
	}
	b.Run("ctx", func(b *testing.B) {
		svc := mkService(benchSchema(b), 0)
		ctx := Context{
			Numeric:     map[string]float64{"num_tasks": 42, "input_mb": 512, "cpu_usage": 3},
			Categorical: map[string]string{"site": "expanse"},
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t, err := svc.RecommendCtx("s", ctx)
			if err != nil {
				b.Fatal(err)
			}
			if err := svc.Observe(t.ID, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw", func(b *testing.B) {
		svc := mkService(nil, 7) // the ctx stream's encoded dimension
		x := []float64{42, 0.5, 0.1, 1, 0, 0, 0}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t, err := svc.Recommend("s", x)
			if err != nil {
				b.Fatal(err)
			}
			if err := svc.Observe(t.ID, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkObserveOutcome measures the structured-outcome observe path
// — recommend → ObserveOutcome with success flag and two named metrics
// — against the scalar path on an identically configured stream, once
// under the default runtime reward and once under cost_weighted, so
// the reward-pipeline overhead on the hot path is tracked from a
// recorded baseline.
//
// Recorded baseline (PR 4, linux/amd64 Xeon @2.70GHz): scalar
// ~0.86 µs/op; outcome/runtime ~1.05 µs/op; outcome/cost_weighted
// ~1.05 µs/op — metric-map validation plus reward scoring cost ~0.2 µs
// of an in-memory round trip and vanish behind any real network hop.
// PR 5 adds per-arm online drift monitoring to every observe (one
// PredictAll for the pre-update residual plus a Page-Hinkley update):
// scalar ~0.95 µs/op, outcome ~1.3 µs/op on the same hardware class.
func BenchmarkObserveOutcome(b *testing.B) {
	mk := func(rw RewardSpec) *Service {
		svc := NewService(ServiceOptions{})
		if err := svc.CreateStream("s", StreamConfig{
			Hardware: NDPHardware(), Dim: 1, Options: Options{Seed: 1}, Reward: rw,
		}); err != nil {
			b.Fatal(err)
		}
		for j := 1; j <= 8; j++ {
			if err := svc.ObserveDirectOutcome("s", j%3, []float64{float64(j)}, Outcome{Runtime: float64(3 * j)}); err != nil {
				b.Fatal(err)
			}
		}
		return svc
	}
	ok := true
	outcome := Outcome{
		Runtime: 100,
		Success: &ok,
		Metrics: map[string]float64{"memory_gb": 3.5, "cost_usd": 0.01},
	}
	x := []float64{42}
	b.Run("scalar", func(b *testing.B) {
		svc := mk(RewardSpec{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t, err := svc.Recommend("s", x)
			if err != nil {
				b.Fatal(err)
			}
			if err := svc.Observe(t.ID, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, rw := range []RewardSpec{{}, {Type: RewardCostWeighted, Lambda: 0.5}} {
		name := "outcome/" + RewardRuntime
		if rw.Type != "" {
			name = "outcome/" + rw.Type
		}
		b.Run(name, func(b *testing.B) {
			svc := mk(rw)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, err := svc.Recommend("s", x)
				if err != nil {
					b.Fatal(err)
				}
				if err := svc.ObserveOutcome(t.ID, outcome); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

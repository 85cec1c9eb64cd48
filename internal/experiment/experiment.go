// Package experiment is the harness that regenerates every table and
// figure of the paper's evaluation: the online bandit simulations with
// per-round RMSE/accuracy aggregated over independent replicas
// (Figures 4, 7, 9–12), the linear-regression baseline distributions
// (Figures 5 and 8), the model-fit overlays (Figures 3 and 6), and the
// policy/parameter ablations.
//
// Metric definitions (shared by all experiments):
//
//   - Full fit (baseline): one OLS model per arm fitted on the entire
//     trace; its pooled RMSE is the paper's red/orange reference line.
//   - Round-r RMSE: pooled RMSE of the bandit's per-arm models over the
//     entire trace after r online rounds.
//   - Round-r accuracy: fraction of trace rows where the bandit's
//     tolerant selection equals the ground-truth tolerant-best arm.
//   - Per round, mean ± stddev aggregates over NSim independent
//     simulations (the paper's blue bars).
package experiment

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"banditware/internal/core"
	"banditware/internal/regress"
	"banditware/internal/rng"
	"banditware/internal/stats"
	"banditware/internal/workloads"
)

// BanditConfig configures one online-bandit experiment.
type BanditConfig struct {
	// Dataset is the workload trace with generative ground truth.
	Dataset *workloads.Dataset
	// Options are the Algorithm 1 parameters (α, ε₀, tolerances...).
	Options core.Options
	// NRounds is the number of online rounds per simulation.
	NRounds int
	// NSim is the number of independent simulations aggregated per round.
	NSim int
	// Seed drives the whole experiment deterministically.
	Seed uint64
	// AccuracySample caps how many trace rows the accuracy evaluation
	// scans per round (0 = all rows). Sampling keeps 100-sim × 80-round
	// matmul runs fast without changing the estimate materially.
	AccuracySample int
	// NoAutoScale disables the default behaviour of deriving
	// core.Options.FeatureScale from the trace's per-feature standard
	// deviations (which keeps early-round fits well-conditioned when
	// features span many orders of magnitude, as BP3D's do).
	NoAutoScale bool
}

func (c BanditConfig) validate() error {
	if c.Dataset == nil {
		return errors.New("experiment: nil dataset")
	}
	if err := c.Dataset.Validate(); err != nil {
		return err
	}
	if c.NRounds <= 0 || c.NSim <= 0 {
		return fmt.Errorf("experiment: need positive rounds/sims, got %d/%d", c.NRounds, c.NSim)
	}
	return nil
}

// RoundStats aggregates one round across simulations.
type RoundStats struct {
	Round    int
	RMSEMean float64
	RMSEStd  float64
	AccMean  float64
	AccStd   float64
}

// BanditResult is the output of RunBandit.
type BanditResult struct {
	Rounds []RoundStats
	// BaselineRMSE is the full-fit pooled RMSE (the red line).
	BaselineRMSE float64
	// BaselineAccuracy is the full-fit model's tolerant-selection accuracy.
	BaselineAccuracy float64
	// RandomAccuracy is the uniform-guess floor 1/numArms.
	RandomAccuracy float64
	// FinalModels holds the per-arm models of the first simulation after
	// the last round, for fit overlays (Figures 3 and 6).
	FinalModels []regress.Model
}

// RunBandit executes the online-bandit experiment: NSim independent
// simulations of NRounds rounds each. Per round, a workflow is drawn
// uniformly from the trace, Algorithm 1 recommends an arm, the observed
// runtime is synthesised from the dataset's generative model for that
// (features, arm) pair, and the bandit updates. After every round the
// bandit's models are scored over the full trace.
func RunBandit(cfg BanditConfig) (*BanditResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := cfg.Dataset
	xs, y, arms := d.Pooled()
	dim := d.Dim()

	baseRMSE, baseAcc, err := fullFitBaseline(cfg)
	if err != nil {
		return nil, err
	}
	res := &BanditResult{
		BaselineRMSE:     baseRMSE,
		BaselineAccuracy: baseAcc,
		RandomAccuracy:   1 / float64(len(d.Hardware)),
	}

	baseOpts := cfg.Options
	if baseOpts.FeatureScale == nil && !cfg.NoAutoScale {
		baseOpts.FeatureScale = featureScales(d)
		if baseOpts.RidgeLambda == 0 {
			// Oracle ridge weight in standardized feature space:
			// λ* ≈ d·σ²/‖w‖², with σ² estimated by the full-fit residual
			// variance and ‖w‖² by the explained variance of the trace.
			// High-noise traces (BP3D) get a strong prior that tames the
			// underdetermined early rounds; low-noise traces (Cycles) get
			// a nearly-free prior so convergence is unbiased.
			vy := stats.PopVariance(y)
			signal := vy - baseRMSE*baseRMSE
			if signal < 0.01*vy {
				signal = 0.01 * vy
			}
			if signal > 0 {
				baseOpts.RidgeLambda = float64(dim) * baseRMSE * baseRMSE / signal
			}
		}
	}

	// Each simulation derives its random stream up front from the root
	// source, so execution order cannot affect results and the worker
	// pool below is deterministic for any worker count.
	simRngs := make([]*rng.Source, cfg.NSim)
	root := rng.New(cfg.Seed)
	for sim := range simRngs {
		simRngs[sim] = root.Split()
	}

	// simOutcome carries one simulation's per-round metrics.
	type simOutcome struct {
		rmse, acc []float64
		models    []regress.Model // sim 0 only
		err       error
	}
	outcomes := make([]simOutcome, cfg.NSim)

	runSim := func(sim int) simOutcome {
		simRng := simRngs[sim]
		opts := baseOpts
		opts.Seed = simRng.Uint64()
		b, err := core.New(d.Hardware, dim, opts)
		if err != nil {
			return simOutcome{err: err}
		}
		out := simOutcome{
			rmse: make([]float64, cfg.NRounds),
			acc:  make([]float64, cfg.NRounds),
		}
		for round := 0; round < cfg.NRounds; round++ {
			run := d.Runs[simRng.Intn(len(d.Runs))]
			dec, err := b.Recommend(run.Features)
			if err != nil {
				return simOutcome{err: err}
			}
			rt := d.SampleRuntime(dec.Arm, run.Features, simRng)
			if err := b.Observe(dec.Arm, run.Features, rt); err != nil {
				return simOutcome{err: err}
			}
			rmse, err := pooledRMSE(b, xs, y, arms)
			if err != nil {
				return simOutcome{err: err}
			}
			out.rmse[round] = rmse
			out.acc[round] = selectionAccuracy(b, cfg, simRng)
		}
		if sim == 0 {
			out.models = make([]regress.Model, len(d.Hardware))
			for i := range out.models {
				m, err := b.Model(i)
				if err != nil {
					return simOutcome{err: err}
				}
				out.models[i] = m
			}
		}
		return out
	}

	// Simulations fan out over min(GOMAXPROCS, NSim) workers.
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(runtime.GOMAXPROCS(0), cfg.NSim); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sim := range next {
				outcomes[sim] = runSim(sim)
			}
		}()
	}
	for sim := 0; sim < cfg.NSim; sim++ {
		next <- sim
	}
	close(next)
	wg.Wait()

	for sim := range outcomes {
		if outcomes[sim].err != nil {
			return nil, outcomes[sim].err
		}
	}
	res.FinalModels = outcomes[0].models

	res.Rounds = make([]RoundStats, cfg.NRounds)
	col := make([]float64, cfg.NSim)
	for r := 0; r < cfg.NRounds; r++ {
		for sim := range outcomes {
			col[sim] = outcomes[sim].rmse[r]
		}
		rmseMean, rmseStd := stats.Mean(col), stats.StdDev(col)
		for sim := range outcomes {
			col[sim] = outcomes[sim].acc[r]
		}
		res.Rounds[r] = RoundStats{
			Round:    r + 1,
			RMSEMean: rmseMean,
			RMSEStd:  rmseStd,
			AccMean:  stats.Mean(col),
			AccStd:   stats.StdDev(col),
		}
	}
	return res, nil
}

// featureScales derives per-feature divisors from the trace: the
// population standard deviation, falling back to the mean magnitude and
// then 1 for constant features.
func featureScales(d *workloads.Dataset) []float64 {
	dim := d.Dim()
	scales := make([]float64, dim)
	if len(d.Runs) == 0 {
		for j := range scales {
			scales[j] = 1
		}
		return scales
	}
	for j := 0; j < dim; j++ {
		col := make([]float64, len(d.Runs))
		for i, r := range d.Runs {
			col[i] = r.Features[j]
		}
		s := stats.StdDev(col)
		if s <= 0 || math.IsNaN(s) {
			m := math.Abs(stats.Mean(col))
			if m > 0 {
				s = m
			} else {
				s = 1
			}
		}
		scales[j] = s
	}
	return scales
}

// pooledRMSE scores the bandit's per-arm models over the whole trace:
// row i is predicted by the model of the arm it actually ran on.
func pooledRMSE(b *core.Bandit, xs [][]float64, y []float64, arms []int) (float64, error) {
	pred := make([]float64, len(xs))
	models := make([]regress.Model, b.NumArms())
	for i := range models {
		m, err := b.Model(i)
		if err != nil {
			return 0, err
		}
		models[i] = m
	}
	for i := range xs {
		pred[i] = models[arms[i]].Predict(xs[i])
	}
	return stats.RMSE(pred, y)
}

// selectionAccuracy measures how often the bandit's tolerant selection
// matches the ground-truth tolerant-best arm across the trace (or a
// sample of it).
func selectionAccuracy(b *core.Bandit, cfg BanditConfig, r *rng.Source) float64 {
	d := cfg.Dataset
	n := len(d.Runs)
	idxs := make([]int, 0, n)
	if cfg.AccuracySample > 0 && cfg.AccuracySample < n {
		idxs = append(idxs, r.Sample(n, cfg.AccuracySample)...)
	} else {
		for i := 0; i < n; i++ {
			idxs = append(idxs, i)
		}
	}
	tr, ts := cfg.Options.ToleranceRatio, cfg.Options.ToleranceSeconds
	correct := 0
	for _, i := range idxs {
		x := d.Runs[i].Features
		preds, err := b.PredictAll(x)
		if err != nil {
			return 0
		}
		sel := core.TolerantSelect(preds, d.Hardware, tr, ts)
		if sel == d.BestArm(x, tr, ts) {
			correct++
		}
	}
	return float64(correct) / float64(len(idxs))
}

// fullFitBaseline fits per-arm OLS on the whole trace and scores its
// pooled RMSE and tolerant-selection accuracy — the theoretical best the
// bandit can converge to.
func fullFitBaseline(cfg BanditConfig) (rmse, acc float64, err error) {
	d := cfg.Dataset
	byArmX, byArmY := d.ByArm()
	rec, err := regress.FitRecommender(d.Hardware, byArmX, byArmY, 0)
	if err != nil {
		return 0, 0, err
	}
	xs, y, arms := d.Pooled()
	score, err := rec.EvaluatePooled(arms, xs, y)
	if err != nil {
		return 0, 0, err
	}
	tr, ts := cfg.Options.ToleranceRatio, cfg.Options.ToleranceSeconds
	correct := 0
	for _, run := range d.Runs {
		preds := rec.PredictAllArms(run.Features)
		sel := core.TolerantSelect(preds, d.Hardware, tr, ts)
		if sel == d.BestArm(run.Features, tr, ts) {
			correct++
		}
	}
	return score.RMSE, float64(correct) / float64(len(d.Runs)), nil
}

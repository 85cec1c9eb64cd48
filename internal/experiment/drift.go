package experiment

import (
	"errors"
	"fmt"

	"banditware/internal/core"
	"banditware/internal/rng"
	"banditware/internal/stats"
	"banditware/internal/workloads"
)

// DriftConfig configures a non-stationarity experiment: halfway through
// the run the environment permutes which hardware behaves like which
// (e.g. a cluster upgrade or co-tenancy change), and we measure how fast
// recommenders with and without forgetting recover. This implements the
// paper's "adapting to dynamic environments" motivation as a concrete,
// measurable protocol.
type DriftConfig struct {
	// Dataset supplies features and the pre-drift ground truth.
	Dataset *workloads.Dataset
	// SwapRound is when the drift happens (default NRounds/2).
	SwapRound int
	// NRounds, NSim, Seed as in BanditConfig.
	NRounds int
	NSim    int
	Seed    uint64
	// ForgettingFactor for the adaptive bandit (the baseline bandit runs
	// without forgetting). 0 selects 0.98.
	ForgettingFactor float64
}

// DriftResult reports per-round accuracy for both bandits.
type DriftResult struct {
	// Rounds holds the round index (1-based).
	Rounds []int
	// AccStatic / AccForgetting are mean accuracies per round for the
	// plain bandit and the forgetting bandit.
	AccStatic     []float64
	AccForgetting []float64
	// SwapRound echoes the drift point.
	SwapRound int
}

// driftTruth returns the effective ground truth at a given round: before
// the swap it is the dataset's; after, arms are reversed (arm i behaves
// like arm n-1-i) — a worst-case permutation drift.
func driftTruth(d *workloads.Dataset, swapped bool) func(arm int, x []float64) float64 {
	if !swapped {
		return d.Truth
	}
	n := len(d.Hardware)
	return func(arm int, x []float64) float64 {
		return d.Truth(n-1-arm, x)
	}
}

// RunDrift runs both bandits through the same drifting environment.
func RunDrift(cfg DriftConfig) (*DriftResult, error) {
	if cfg.Dataset == nil {
		return nil, errors.New("experiment: nil dataset")
	}
	if err := cfg.Dataset.Validate(); err != nil {
		return nil, err
	}
	if cfg.NRounds <= 0 || cfg.NSim <= 0 {
		return nil, fmt.Errorf("experiment: need positive rounds/sims, got %d/%d", cfg.NRounds, cfg.NSim)
	}
	if cfg.SwapRound <= 0 {
		cfg.SwapRound = cfg.NRounds / 2
	}
	if cfg.ForgettingFactor == 0 {
		cfg.ForgettingFactor = 0.98
	}
	d := cfg.Dataset
	dim := d.Dim()
	scales := featureScales(d)

	res := &DriftResult{SwapRound: cfg.SwapRound}
	accStatic := make([][]float64, cfg.NRounds)
	accForget := make([][]float64, cfg.NRounds)

	root := rng.New(cfg.Seed)
	for sim := 0; sim < cfg.NSim; sim++ {
		simRng := root.Split()
		mk := func(forget float64) (*core.Bandit, error) {
			return core.New(d.Hardware, dim, core.Options{
				Seed:             simRng.Uint64(),
				FeatureScale:     scales,
				ForgettingFactor: forget,
				// Keep a little exploration alive forever so drift is
				// detectable at all: with the paper's pure decay the
				// post-swap environment would never be sampled.
				MinEpsilon: 0.05,
			})
		}
		static, err := mk(0)
		if err != nil {
			return nil, err
		}
		forgetting, err := mk(cfg.ForgettingFactor)
		if err != nil {
			return nil, err
		}
		for round := 0; round < cfg.NRounds; round++ {
			swapped := round >= cfg.SwapRound
			truth := driftTruth(d, swapped)
			run := d.Runs[simRng.Intn(len(d.Runs))]
			for bi, b := range []*core.Bandit{static, forgetting} {
				dec, err := b.Recommend(run.Features)
				if err != nil {
					return nil, err
				}
				rt := truth(dec.Arm, run.Features) + simRng.Normal(0, d.Noise(dec.Arm, run.Features))
				if err := b.Observe(dec.Arm, run.Features, rt); err != nil {
					return nil, err
				}
				acc := driftAccuracy(b, d, truth, simRng)
				if bi == 0 {
					accStatic[round] = append(accStatic[round], acc)
				} else {
					accForget[round] = append(accForget[round], acc)
				}
			}
		}
	}
	for r := 0; r < cfg.NRounds; r++ {
		res.Rounds = append(res.Rounds, r+1)
		res.AccStatic = append(res.AccStatic, stats.Mean(accStatic[r]))
		res.AccForgetting = append(res.AccForgetting, stats.Mean(accForget[r]))
	}
	return res, nil
}

// driftAccuracy scores strict best-arm accuracy against the *current*
// (possibly swapped) truth over a sample of the trace.
func driftAccuracy(b *core.Bandit, d *workloads.Dataset, truth func(int, []float64) float64, r *rng.Source) float64 {
	const sample = 100
	n := len(d.Runs)
	k := sample
	if k > n {
		k = n
	}
	correct := 0
	for _, i := range r.Sample(n, k) {
		x := d.Runs[i].Features
		sel, err := b.Exploit(x)
		if err != nil {
			return 0
		}
		best, bestV := 0, truth(0, x)
		for a := 1; a < len(d.Hardware); a++ {
			if v := truth(a, x); v < bestV {
				best, bestV = a, v
			}
		}
		if sel == best {
			correct++
		}
	}
	return float64(correct) / float64(k)
}

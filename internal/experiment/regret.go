package experiment

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"banditware/internal/rng"
	"banditware/internal/stats"
	"banditware/internal/workloads"
)

// RegretConfig configures a cumulative-regret comparison: every policy
// plays the same online protocol and we record the running sum of
// truth(chosen) − truth(best) per round — the standard bandit-literature
// learning curve, complementing the paper's accuracy/RMSE views.
type RegretConfig struct {
	Dataset  *workloads.Dataset
	NRounds  int
	NSim     int
	Seed     uint64
	Policies map[string]PolicyFactory
}

// RegretCurve is one policy's mean cumulative regret per round.
type RegretCurve struct {
	Policy string
	// Cumulative[r] is the mean (over simulations) cumulative regret in
	// seconds after round r+1.
	Cumulative []float64
	// Std[r] is the across-simulation standard deviation.
	Std []float64
}

// RunRegret produces one curve per policy, all driven by identical
// arrival streams (common random numbers, so curves are directly
// comparable).
func RunRegret(cfg RegretConfig) ([]RegretCurve, error) {
	if cfg.Dataset == nil {
		return nil, errors.New("experiment: nil dataset")
	}
	if err := cfg.Dataset.Validate(); err != nil {
		return nil, err
	}
	if cfg.NRounds <= 0 || cfg.NSim <= 0 {
		return nil, fmt.Errorf("experiment: need positive rounds/sims, got %d/%d", cfg.NRounds, cfg.NSim)
	}
	if len(cfg.Policies) == 0 {
		return nil, errors.New("experiment: no policies")
	}
	d := cfg.Dataset
	dim := d.Dim()
	numArms := len(d.Hardware)

	names := make([]string, 0, len(cfg.Policies))
	for n := range cfg.Policies {
		names = append(names, n)
	}
	sort.Strings(names)

	// Pre-draw the shared workflow arrival streams (common random
	// numbers across policies).
	type step struct {
		runIdx int
		noise  []float64 // per-arm runtime noise draws for this step
	}
	streams := make([][]step, cfg.NSim)
	root := rng.New(cfg.Seed)
	for sim := range streams {
		simRng := root.Split()
		steps := make([]step, cfg.NRounds)
		for r := range steps {
			idx := simRng.Intn(len(d.Runs))
			noise := make([]float64, numArms)
			for a := range noise {
				noise[a] = simRng.Normal(0, 1)
			}
			steps[r] = step{runIdx: idx, noise: noise}
		}
		streams[sim] = steps
	}

	var curves []RegretCurve
	for _, name := range names {
		factory := cfg.Policies[name]
		perRound := make([][]float64, cfg.NRounds)
		for sim := 0; sim < cfg.NSim; sim++ {
			p, err := factory(numArms, dim, cfg.Seed+uint64(sim)*7919)
			if err != nil {
				return nil, fmt.Errorf("experiment: policy %q: %w", name, err)
			}
			cum := 0.0
			for r, st := range streams[sim] {
				run := d.Runs[st.runIdx]
				arm, err := p.Select(run.Features)
				if err != nil {
					return nil, err
				}
				rt := d.Truth(arm, run.Features) + st.noise[arm]*d.Noise(arm, run.Features)
				if err := p.Update(arm, run.Features, rt); err != nil {
					return nil, err
				}
				best := d.BestArm(run.Features, 0, 0)
				cum += d.Truth(arm, run.Features) - d.Truth(best, run.Features)
				perRound[r] = append(perRound[r], cum)
			}
		}
		curve := RegretCurve{Policy: name}
		for r := range perRound {
			curve.Cumulative = append(curve.Cumulative, stats.Mean(perRound[r]))
			curve.Std = append(curve.Std, stats.StdDev(perRound[r]))
		}
		curves = append(curves, curve)
	}
	return curves, nil
}

// WriteRegretCSV writes curves in long form (policy, round, cum, std).
func WriteRegretCSV(w io.Writer, curves []RegretCurve) error {
	if _, err := fmt.Fprintln(w, "policy,round,cumulative_regret_s,std"); err != nil {
		return err
	}
	for _, c := range curves {
		for r := range c.Cumulative {
			if _, err := fmt.Fprintf(w, "%s,%d,%g,%g\n", c.Policy, r+1, c.Cumulative[r], c.Std[r]); err != nil {
				return err
			}
		}
	}
	return nil
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"banditware/internal/core"
	"banditware/internal/experiment"
	"banditware/internal/policy"
	"banditware/internal/stats"
	"banditware/internal/svgplot"
	"banditware/internal/workloads"
)

// runDrift is the non-stationarity extension: halfway through the run the
// hardware behaviours are permuted, and we compare the paper's stationary
// bandit against one with exponential forgetting.
func runDrift(cfg benchConfig, dir string) (string, error) {
	d, err := workloads.GenerateCycles(workloads.CyclesOptions{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	res, err := experiment.RunDrift(experiment.DriftConfig{
		Dataset:          d,
		NRounds:          240,
		NSim:             cfg.sims(20, 4),
		Seed:             cfg.Seed,
		ForgettingFactor: 0.95,
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("round,acc_static,acc_forgetting\n")
	xs := make([]float64, len(res.Rounds))
	for i := range res.Rounds {
		xs[i] = float64(res.Rounds[i])
		fmt.Fprintf(&b, "%d,%g,%g\n", res.Rounds[i], res.AccStatic[i], res.AccForgetting[i])
	}
	if err := writeFile(dir, "data.csv", b.String()); err != nil {
		return "", err
	}
	plot := svgplot.New("Non-stationary hardware: drift at round "+fmt.Sprint(res.SwapRound),
		"round", "accuracy")
	plot.Add(svgplot.Series{Name: "stationary bandit", X: xs, Y: res.AccStatic})
	plot.Add(svgplot.Series{Name: "forgetting bandit (β=0.95)", X: xs, Y: res.AccForgetting})
	if err := renderSVG(plot, dir, "figure.svg"); err != nil {
		return "", err
	}
	tail := len(res.Rounds) - 20
	return driftVerdict(res.SwapRound, stats.Mean(res.AccStatic[tail:]),
		stats.Mean(res.AccForgetting[tail:]), 1/float64(len(d.Hardware))), nil
}

// driftVerdict states the drift run's result from its final-20-round
// accuracies: forgetting recovers only when it beats both the
// stationary bandit and random choice over the arms.
func driftVerdict(swapRound int, endStatic, endForget, random float64) string {
	verdict := "forgetting does not recover: it does not beat both the " +
		"stationary bandit and random choice."
	if endForget > endStatic && endForget > random {
		verdict = "forgetting recovers, beating random choice while the " +
			"stationary model stays anchored to the pre-drift world."
	}
	return fmt.Sprintf(
		"Drift extension (paper future work: dynamic environments): hardware "+
			"behaviours permute at round %d. Final-20-round accuracy: stationary "+
			"bandit %.2f, forgetting bandit %.2f, random choice %.2f — %s",
		swapRound, endStatic, endForget, random, verdict)
}

// runRegret produces cumulative-regret learning curves for the policy
// comparison (common random numbers across policies).
func runRegret(cfg benchConfig, dir string) (string, error) {
	d, err := workloads.GenerateCycles(workloads.CyclesOptions{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	curves, err := experiment.RunRegret(experiment.RegretConfig{
		Dataset: d,
		NRounds: 200,
		NSim:    cfg.sims(20, 4),
		Seed:    cfg.Seed,
		Policies: map[string]experiment.PolicyFactory{
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
		},
	})
	if err != nil {
		return "", err
	}
	f, err := os.Create(filepath.Join(dir, "data.csv"))
	if err != nil {
		return "", err
	}
	if err := experiment.WriteRegretCSV(f, curves); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	plot := svgplot.New("Cumulative regret on Cycles", "round", "cumulative regret (s)")
	var finals []string
	for _, c := range curves {
		xs := make([]float64, len(c.Cumulative))
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		plot.Add(svgplot.Series{Name: c.Policy, X: xs, Y: c.Cumulative, YErr: c.Std})
		finals = append(finals, fmt.Sprintf("%s %.0f", c.Policy, c.Cumulative[len(c.Cumulative)-1]))
	}
	if err := renderSVG(plot, dir, "figure.svg"); err != nil {
		return "", err
	}
	return "Cumulative regret after 200 rounds (s): " + strings.Join(finals, ", ") +
		". Algorithm 1 pays its fixed exploration schedule up front; the " +
		"confidence-guided policies explore only where uncertain.", nil
}

// runLLM is the GPU/LLM extension: the future-work workload on
// GPU-bearing hardware.
func runLLM(cfg benchConfig, dir string) (string, error) {
	d, err := workloads.GenerateLLM(workloads.LLMOptions{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	res, err := experiment.RunBandit(experiment.BanditConfig{
		Dataset:  d,
		Options:  core.Options{ToleranceRatio: 0.10},
		NRounds:  120,
		NSim:     cfg.sims(20, 5),
		Seed:     cfg.Seed,
		Parallel: -1,
	})
	if err != nil {
		return "", err
	}
	if err := writeRounds(dir, "LLM inference on GPU hardware", res); err != nil {
		return "", err
	}
	last := res.Rounds[len(res.Rounds)-1]
	return fmt.Sprintf(
		"LLM extension (paper future work: GPU-aware recommendation): %d runs, "+
			"hardware {CPU, 1/2/4 GPUs}, features {prompt_tokens, gen_tokens, "+
			"batch_size, model_b_params}, 10%% ratio tolerance.\n"+
			"Final accuracy %.2f (random %.2f), final RMSE %.1f vs full-fit %.1f. "+
			"The bandit learns that big models need multi-GPU settings while small "+
			"models run cheapest on fewer devices.",
		len(d.Runs), last.AccMean, res.RandomAccuracy, last.RMSEMean, res.BaselineRMSE), nil
}

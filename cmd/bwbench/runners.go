package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"banditware/internal/core"
	"banditware/internal/experiment"
	"banditware/internal/policy"
	"banditware/internal/rng"
	"banditware/internal/stats"
	"banditware/internal/svgplot"
	"banditware/internal/workloads"
)

// writeFile is a small helper writing text artifacts.
func writeFile(dir, name, content string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}

// renderSVG writes a plot to dir/name.
func renderSVG(p *svgplot.Plot, dir, name string) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := p.Render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeRounds writes per-round CSV plus RMSE/accuracy SVGs for a bandit
// result, the shared shape of Figures 4, 7, 9, 10, 11, 12.
func writeRounds(dir, title string, res *experiment.BanditResult) error {
	f, err := os.Create(filepath.Join(dir, "data.csv"))
	if err != nil {
		return err
	}
	if err := experiment.WriteRoundsCSV(f, res); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rounds := make([]float64, len(res.Rounds))
	rmse := make([]float64, len(res.Rounds))
	rmseErr := make([]float64, len(res.Rounds))
	acc := make([]float64, len(res.Rounds))
	accErr := make([]float64, len(res.Rounds))
	for i, r := range res.Rounds {
		rounds[i] = float64(r.Round)
		rmse[i] = r.RMSEMean
		rmseErr[i] = r.RMSEStd
		acc[i] = r.AccMean
		accErr[i] = r.AccStd
	}
	pr := svgplot.New(title+" — RMSE over time", "round", "rmse")
	pr.Add(svgplot.Series{Name: "bandit (mean ± std)", X: rounds, Y: rmse, YErr: rmseErr})
	pr.SetBaseline(res.BaselineRMSE)
	if err := renderSVG(pr, dir, "rmse.svg"); err != nil {
		return err
	}
	pa := svgplot.New(title+" — accuracy over time", "round", "accuracy")
	pa.Add(svgplot.Series{Name: "bandit (mean ± std)", X: rounds, Y: acc, YErr: accErr})
	pa.SetBaseline(res.BaselineAccuracy)
	return renderSVG(pa, dir, "accuracy.svg")
}

// ---------------------------------------------------------------------
// fig1 — framework overview pipeline (per-hardware tables → merge).

func runFig1(cfg benchConfig, dir string) (string, error) {
	d, err := workloads.GenerateBP3D(workloads.BP3DOptions{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	perHW := d.PerArm()
	var perHWCounts []string
	for arm, name := range d.Hardware.Names() {
		perHWCounts = append(perHWCounts, fmt.Sprintf("%s: %d rows", name, len(perHW[arm].Runs)))
	}
	merged := workloads.Concat(perHW...)
	if err := merged.WriteCSVFile(filepath.Join(dir, "data.csv"), true); err != nil {
		return "", err
	}
	return fmt.Sprintf(
		"Figure 1 pipeline: %d raw BP3D runs split per hardware (%s), "+
			"projected to useful columns, merged back to %d rows × %d cols.",
		len(d.Runs), strings.Join(perHWCounts, ", "), len(merged.Runs), len(merged.Columns(true))), nil
}

// ---------------------------------------------------------------------
// fig2 — ε-greedy multi-armed bandit illustration.

func runFig2(cfg benchConfig, dir string) (string, error) {
	// Four slot machines with different mean payouts; the policy
	// minimises "runtime", so feed negative payouts.
	payouts := []float64{0.3, 0.55, 0.45, 0.7} // arm 3 is best
	const rounds = 2000
	p, err := policy.NewFixedEpsilonGreedy(len(payouts), 0, 0.1, cfg.Seed)
	if err != nil {
		return "", err
	}
	r := rng.New(cfg.Seed)
	pulls := make([]int, len(payouts))
	cum := 0.0
	avg := make([]float64, rounds)
	for i := 0; i < rounds; i++ {
		arm, err := p.Select(nil)
		if err != nil {
			return "", err
		}
		reward := 0.0
		if r.Bernoulli(payouts[arm]) {
			reward = 1
		}
		if err := p.Update(arm, nil, -reward); err != nil {
			return "", err
		}
		pulls[arm]++
		cum += reward
		avg[i] = cum / float64(i+1)
	}
	var b strings.Builder
	b.WriteString("round,avg_reward\n")
	xs := make([]float64, rounds)
	for i := range avg {
		xs[i] = float64(i + 1)
		fmt.Fprintf(&b, "%d,%g\n", i+1, avg[i])
	}
	if err := writeFile(dir, "data.csv", b.String()); err != nil {
		return "", err
	}
	plot := svgplot.New("ε-greedy on 4 slot machines", "round", "average reward")
	plot.Add(svgplot.Series{Name: "ε=0.1", X: xs, Y: avg})
	plot.SetBaseline(payouts[3])
	if err := renderSVG(plot, dir, "figure.svg"); err != nil {
		return "", err
	}
	return fmt.Sprintf(
		"Figure 2 (illustration): ε-greedy (ε=0.1) over 4 Bernoulli arms %v; "+
			"final average reward %.3f (optimal %.2f); best arm pulled %d/%d times.",
		payouts, avg[rounds-1], payouts[3], pulls[3], rounds), nil
}

// ---------------------------------------------------------------------
// fig3 — Cycles fit overlay on four synthetic hardware settings.

func runFig3(cfg benchConfig, dir string) (string, error) {
	d, err := workloads.GenerateCycles(workloads.CyclesOptions{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	series, res, err := experiment.RunFit(experiment.FitConfig{
		Bandit: experiment.BanditConfig{
			Dataset: d,
			Options: core.Options{},
			NRounds: 100,
			NSim:    1,
			Seed:    cfg.Seed,
		},
		Feature: "num_tasks",
		Lo:      100, Hi: 500, Steps: 17,
	})
	if err != nil {
		return "", err
	}
	f, err := os.Create(filepath.Join(dir, "data.csv"))
	if err != nil {
		return "", err
	}
	if err := experiment.WriteFitCSV(f, series, "num_tasks"); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	plot := svgplot.New("Cycles: model fit per hardware", "number of tasks", "makespan (s)")
	var fitErrs []string
	for _, s := range series {
		plot.Add(svgplot.Series{Name: s.ArmName + " actual", X: s.X, Y: s.Actual, Style: svgplot.Points})
		plot.Add(svgplot.Series{Name: s.ArmName + " predicted", X: s.X, Y: s.Predicted, Style: svgplot.Lines, Dashed: true})
		rmse, _ := stats.RMSE(s.Predicted, s.Actual)
		fitErrs = append(fitErrs, fmt.Sprintf("%s %.1f", s.ArmName, rmse))
	}
	if err := renderSVG(plot, dir, "figure.svg"); err != nil {
		return "", err
	}
	return fmt.Sprintf(
		"Figure 3: bandit-learned linear fits vs ground truth for 4 synthetic "+
			"hardware settings after 100 rounds (1 sim). Prediction RMSE vs truth "+
			"along the sweep: %s (makespans span ~700–3100 s). Baseline full-fit RMSE %.1f.",
		strings.Join(fitErrs, ", "), res.BaselineRMSE), nil
}

// ---------------------------------------------------------------------
// fig4 — Cycles RMSE (4a) and accuracy with 20 s tolerance (4b).

func runFig4(cfg benchConfig, dir string) (string, error) {
	d, err := workloads.GenerateCycles(workloads.CyclesOptions{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	res, err := experiment.RunBandit(experiment.BanditConfig{
		Dataset: d,
		Options: core.Options{ToleranceSeconds: 20},
		NRounds: 100,
		NSim:    cfg.sims(10, 3),
		Seed:    cfg.Seed,
	})
	if err != nil {
		return "", err
	}
	if err := writeRounds(dir, "Cycles", res); err != nil {
		return "", err
	}
	// The paper's headline: the bandit approaches the full-dataset error
	// within tens of samples. Find the first round within 2× baseline.
	reach := -1
	for _, r := range res.Rounds {
		if r.RMSEMean <= 2*res.BaselineRMSE {
			reach = r.Round
			break
		}
	}
	last := res.Rounds[len(res.Rounds)-1]
	return fmt.Sprintf(
		"Figure 4: Cycles over 100 rounds × %d sims (tolerance 20 s).\n%s\n"+
			"First round with mean RMSE within 2× of the full-fit baseline: %d "+
			"(paper: matches baseline error with ~20 samples). "+
			"Final accuracy %.2f ± %.2f.",
		cfg.sims(10, 3), experiment.MarkdownRounds(res, []int{1, 5, 10, 20, 50, 100}),
		reach, last.AccMean, last.AccStd), nil
}

// ---------------------------------------------------------------------
// table1 — BP3D feature schema.

func runTable1(cfg benchConfig, dir string) (string, error) {
	desc := map[string]string{
		"surface_moisture":      "surface fuel moisture",
		"canopy_moisture":       "canopy fuel moisture",
		"wind_direction":        "direction of surface winds",
		"wind_speed":            "speed of surface winds",
		"sim_time":              "maximum simulation steps allowed",
		"run_max_mem_rss_bytes": "maximum RSS bytes allowed per run",
		"area":                  "calculated regional surface area",
	}
	d, err := workloads.GenerateBP3D(workloads.BP3DOptions{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("| Feature Name | Description | generated min | generated max |\n|---|---|---|---|\n")
	for j, name := range d.FeatureNames {
		lo, hi := d.Runs[0].Features[j], d.Runs[0].Features[j]
		for _, r := range d.Runs {
			v := r.Features[j]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		fmt.Fprintf(&b, "| %s | %s | %.4g | %.4g |\n", name, desc[name], lo, hi)
	}
	if err := writeFile(dir, "data.csv", b.String()); err != nil {
		return "", err
	}
	return "Table 1: BurnPro3D inputs (all seven features generated):\n\n" + b.String(), nil
}

// ---------------------------------------------------------------------
// fig5 — 100 linear regressions on 25 BP3D samples (all vs area-only).

func runFig5(cfg benchConfig, dir string) (string, error) {
	d, err := workloads.GenerateBP3D(workloads.BP3DOptions{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	area, err := d.SelectFeatures("area")
	if err != nil {
		return "", err
	}
	nm := cfg.sims(100, 20)
	all, err := experiment.RunLinReg(experiment.LinRegConfig{
		Dataset: d, NModels: nm, TrainN: 25, Normalize: true, ScaleFeatures: true,
		Pooled: true, Seed: cfg.Seed,
	})
	if err != nil {
		return "", err
	}
	areaOnly, err := experiment.RunLinReg(experiment.LinRegConfig{
		Dataset: area, NModels: nm, TrainN: 25, Normalize: true, ScaleFeatures: true,
		Pooled: true, Seed: cfg.Seed + 1,
	})
	if err != nil {
		return "", err
	}
	if err := writeLinRegPair(dir, "bp3d", all, areaOnly, "rmse_all", "rmse_area_only", "r2_all", "r2_area_only"); err != nil {
		return "", err
	}
	sAll, _ := all.RMSESummary()
	sArea, _ := areaOnly.RMSESummary()
	rAll, _ := all.R2Summary()
	return fmt.Sprintf(
		"Figure 5: %d linear-regression recommenders on 25 BP3D samples.\n"+
			"Normalised RMSE all-features: mean %.4f range [%.4f, %.4f] (paper: mean 0.7256, range 0.5163–0.855).\n"+
			"Normalised RMSE area-only: mean %.4f.\n"+
			"R² all-features: mean %.4f, range %.4f (paper: mean 12.83%%, range 51.88%%).",
		nm, sAll.Mean, sAll.Min, sAll.Max, sArea.Mean, rAll.Mean, rAll.Max-rAll.Min), nil
}

func writeLinRegPair(dir, tag string, a, b *experiment.LinRegResult, rmseA, rmseB, r2A, r2B string) error {
	var sb strings.Builder
	sb.WriteString("model," + rmseA + "," + rmseB + "," + r2A + "," + r2B + "\n")
	for i := range a.RMSE {
		fmt.Fprintf(&sb, "%d,%g,%g,%g,%g\n", i, a.RMSE[i], b.RMSE[i], a.R2[i], b.R2[i])
	}
	if err := writeFile(dir, "data.csv", sb.String()); err != nil {
		return err
	}
	sa, err := a.RMSESummary()
	if err != nil {
		return err
	}
	sb2, err := b.RMSESummary()
	if err != nil {
		return err
	}
	pr := svgplot.New("RMSE scores ("+tag+")", "", "rmse")
	pr.AddBox(rmseA, sa.Min, sa.Q1, sa.Median, sa.Q3, sa.Max)
	pr.AddBox(rmseB, sb2.Min, sb2.Q1, sb2.Median, sb2.Q3, sb2.Max)
	if err := renderSVG(pr, dir, "rmse.svg"); err != nil {
		return err
	}
	ra, err := a.R2Summary()
	if err != nil {
		return err
	}
	rb, err := b.R2Summary()
	if err != nil {
		return err
	}
	p2 := svgplot.New("R-squared scores ("+tag+")", "", "r2")
	p2.AddBox(r2A, ra.Min, ra.Q1, ra.Median, ra.Q3, ra.Max)
	p2.AddBox(r2B, rb.Min, rb.Q1, rb.Median, rb.Q3, rb.Max)
	return renderSVG(p2, dir, "r2.svg")
}

// ---------------------------------------------------------------------
// fig6 — BP3D bandit fit vs baseline using the area feature only.

func runFig6(cfg benchConfig, dir string) (string, error) {
	d, err := workloads.GenerateBP3D(workloads.BP3DOptions{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	area, err := d.SelectFeatures("area")
	if err != nil {
		return "", err
	}
	series, _, err := experiment.RunFit(experiment.FitConfig{
		Bandit: experiment.BanditConfig{
			Dataset: area,
			Options: core.Options{},
			NRounds: 50,
			NSim:    1,
			Seed:    cfg.Seed,
		},
		Feature: "area",
		Lo:      0.9e6, Hi: 2.6e6, Steps: 12,
	})
	if err != nil {
		return "", err
	}
	f, err := os.Create(filepath.Join(dir, "data.csv"))
	if err != nil {
		return "", err
	}
	if err := experiment.WriteFitCSV(f, series, "area"); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	plot := svgplot.New("BP3D: predicted vs actual runtime by area", "area (m²)", "runtime (s)")
	var lines []string
	for _, s := range series {
		plot.Add(svgplot.Series{Name: s.ArmName + " actual", X: s.X, Y: s.Actual, Style: svgplot.Points})
		plot.Add(svgplot.Series{Name: s.ArmName + " predicted", X: s.X, Y: s.Predicted, Style: svgplot.Lines, Dashed: true})
		rmse, _ := stats.RMSE(s.Predicted, s.Actual)
		lines = append(lines, fmt.Sprintf("%s sweep RMSE %.0f", s.ArmName, rmse))
	}
	if err := renderSVG(plot, dir, "figure.svg"); err != nil {
		return "", err
	}
	return "Figure 6: bandit (50 rounds) predicted vs actual runtime along the " +
		"area sweep for H0–H2; " + strings.Join(lines, ", ") +
		". As in the paper, the three curves nearly coincide (no hardware trade-off).", nil
}

// ---------------------------------------------------------------------
// fig7 — BP3D RMSE + accuracy over time, all features.

func runFig7(cfg benchConfig, dir string) (string, error) {
	d, err := workloads.GenerateBP3D(workloads.BP3DOptions{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	res, err := experiment.RunBandit(experiment.BanditConfig{
		Dataset: d,
		Options: core.Options{},
		NRounds: 50,
		NSim:    cfg.sims(100, 10),
		Seed:    cfg.Seed,
	})
	if err != nil {
		return "", err
	}
	if err := writeRounds(dir, "BP3D (all features)", res); err != nil {
		return "", err
	}
	r25, r50 := res.Rounds[24], res.Rounds[49]
	pct := func(r experiment.RoundStats) float64 {
		return 100 * (r.RMSEMean - res.BaselineRMSE) / res.BaselineRMSE
	}
	return fmt.Sprintf(
		"Figure 7: BP3D, all features, %d sims × 50 rounds.\n"+
			"Full-fit RMSE %.2f (paper: 12257.43).\n"+
			"Round 25: %.2f ± %.2f (%.1f%% above baseline; paper: 20182.91 ± 12290.82, +17.9%%).\n"+
			"Round 50: %.2f ± %.2f (%.1f%% above baseline; paper: 16493.81 ± 7078.61, +12.6%%).\n"+
			"Final accuracy %.3f (paper: ≈0.342 ≈ random 1/3 — no hardware trade-off).",
		cfg.sims(100, 10), res.BaselineRMSE,
		r25.RMSEMean, r25.RMSEStd, pct(r25),
		r50.RMSEMean, r50.RMSEStd, pct(r50),
		r50.AccMean), nil
}

// ---------------------------------------------------------------------
// fig8 — matmul linear regressions, full vs truncated dataset.

func runFig8(cfg benchConfig, dir string) (string, error) {
	d, err := workloads.GenerateMatMul(workloads.MatMulOptions{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	sizeOnly, err := d.SelectFeatures("size")
	if err != nil {
		return "", err
	}
	trunc := workloads.MatMulSubset(sizeOnly, 5000)
	// The paper does not publish the Figure-8 training-sample size; 200
	// rows (~8% of the trace) reproduces its high-R², low-spread regime.
	nm := cfg.sims(100, 20)
	full, err := experiment.RunLinReg(experiment.LinRegConfig{
		Dataset: sizeOnly, NModels: nm, TrainN: 200, Seed: cfg.Seed,
	})
	if err != nil {
		return "", err
	}
	truncated, err := experiment.RunLinReg(experiment.LinRegConfig{
		Dataset: trunc, NModels: nm, TrainN: 200, Seed: cfg.Seed + 1,
	})
	if err != nil {
		return "", err
	}
	if err := writeLinRegPair(dir, "matmul", full, truncated, "rmse_all", "rmse_truncated", "r2_all", "r2_truncated"); err != nil {
		return "", err
	}
	sf, _ := full.RMSESummary()
	st, _ := truncated.RMSESummary()
	rf, _ := full.R2Summary()
	rt, _ := truncated.R2Summary()
	return fmt.Sprintf(
		"Figure 8: %d linreg models on matmul (size feature).\n"+
			"Full-dataset RMSE: mean %.4g s, range [%.4g, %.4g] (paper: 14.97, 5.20–22.45).\n"+
			"Truncated (size ≥ 5000) RMSE: mean %.4g s (paper: 15.07).\n"+
			"R² full: mean %.3f (paper: 0.877); truncated: mean %.3f (paper: 0.882).",
		nm, sf.Mean, sf.Min, sf.Max, st.Mean, rf.Mean, rt.Mean), nil
}

// ---------------------------------------------------------------------
// fig9–fig12 — matmul bandit runs over the four tolerance settings.

func matmulBandit(cfg benchConfig, dir, title string, subset bool, tr, ts float64) (*experiment.BanditResult, error) {
	d, err := workloads.GenerateMatMul(workloads.MatMulOptions{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	sizeOnly, err := d.SelectFeatures("size")
	if err != nil {
		return nil, err
	}
	if subset {
		sizeOnly = workloads.MatMulSubset(sizeOnly, 5000)
	}
	res, err := experiment.RunBandit(experiment.BanditConfig{
		Dataset:        sizeOnly,
		Options:        core.Options{ToleranceRatio: tr, ToleranceSeconds: ts},
		NRounds:        80,
		NSim:           cfg.sims(100, 10),
		Seed:           cfg.Seed,
		AccuracySample: 600,
	})
	if err != nil {
		return nil, err
	}
	return res, writeRounds(dir, title, res)
}

func runFig9(cfg benchConfig, dir string) (string, error) {
	res, err := matmulBandit(cfg, dir, "MatMul full (no tolerance)", false, 0, 0)
	if err != nil {
		return "", err
	}
	last := res.Rounds[len(res.Rounds)-1]
	return fmt.Sprintf(
		"Figure 9: matmul full dataset, size feature, no tolerance.\n"+
			"Final accuracy %.3f (paper: ≈0.3 vs random 0.2 over 5 arms) — small "+
			"matrices dominate the trace and are hardware-insensitive.\nFinal RMSE %.1f "+
			"(baseline %.1f).",
		last.AccMean, last.RMSEMean, res.BaselineRMSE), nil
}

func runFig10(cfg benchConfig, dir string) (string, error) {
	res, err := matmulBandit(cfg, dir, "MatMul subset size>=5000 (no tolerance)", true, 0, 0)
	if err != nil {
		return "", err
	}
	last := res.Rounds[len(res.Rounds)-1]
	return fmt.Sprintf(
		"Figure 10: matmul subset (size ≥ 5000), no tolerance.\n"+
			"Final accuracy %.3f (paper: ≈0.8) — large matrices separate the five "+
			"hardware settings clearly.\nFinal RMSE %.1f (baseline %.1f).",
		last.AccMean, last.RMSEMean, res.BaselineRMSE), nil
}

func runFig11(cfg benchConfig, dir string) (string, error) {
	res, err := matmulBandit(cfg, dir, "MatMul full (tolerance 20 s)", false, 0, 20)
	if err != nil {
		return "", err
	}
	last := res.Rounds[len(res.Rounds)-1]
	return fmt.Sprintf(
		"Figure 11: matmul full dataset with tolerance_seconds = 20.\n"+
			"Final accuracy %.3f (paper: significant improvement over Fig. 9's ≈0.3) — "+
			"sub-minute runs now count as correct when a cheaper config is within 20 s.\n"+
			"Final RMSE %.1f (baseline %.1f).",
		last.AccMean, last.RMSEMean, res.BaselineRMSE), nil
}

func runFig12(cfg benchConfig, dir string) (string, error) {
	res, err := matmulBandit(cfg, dir, "MatMul subset (5% ratio tolerance)", true, 0.05, 0)
	if err != nil {
		return "", err
	}
	last := res.Rounds[len(res.Rounds)-1]
	return fmt.Sprintf(
		"Figure 12: matmul subset with tolerance_ratio = 5%%.\n"+
			"Final accuracy %.3f (paper: high accuracy while selecting more "+
			"resource-efficient hardware).\nFinal RMSE %.1f (baseline %.1f).",
		last.AccMean, last.RMSEMean, res.BaselineRMSE), nil
}

// ---------------------------------------------------------------------
// ablation — decay / ε₀ / tolerance grids on Cycles.

func runAblation(cfg benchConfig, dir string) (string, error) {
	d, err := workloads.GenerateCycles(workloads.CyclesOptions{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	sims := cfg.sims(20, 4)
	var b strings.Builder
	b.WriteString("param,value,final_accuracy,final_rmse\n")
	run := func(opts core.Options) (*experiment.BanditResult, error) {
		return experiment.RunBandit(experiment.BanditConfig{
			Dataset: d, Options: opts, NRounds: 60, NSim: sims, Seed: cfg.Seed,
		})
	}
	for _, alpha := range []float64{0.8, 0.9, 0.95, 0.99, 1.0} {
		res, err := run(core.Options{Alpha: alpha})
		if err != nil {
			return "", err
		}
		last := res.Rounds[len(res.Rounds)-1]
		fmt.Fprintf(&b, "alpha,%g,%g,%g\n", alpha, last.AccMean, last.RMSEMean)
	}
	for _, eps := range []float64{0.1, 0.5, 1.0} {
		res, err := run(core.Options{Epsilon0: eps})
		if err != nil {
			return "", err
		}
		last := res.Rounds[len(res.Rounds)-1]
		fmt.Fprintf(&b, "epsilon0,%g,%g,%g\n", eps, last.AccMean, last.RMSEMean)
	}
	points, err := experiment.RunToleranceGrid(experiment.BanditConfig{
		Dataset: d, Options: core.Options{}, NRounds: 60, NSim: sims, Seed: cfg.Seed,
	}, []float64{0, 0.05, 0.2}, []float64{0, 20, 100})
	if err != nil {
		return "", err
	}
	for _, p := range points {
		fmt.Fprintf(&b, "tolerance,%q,%g,%g\n", p.Label, p.FinalAccuracy, p.MeanCost)
	}
	if err := writeFile(dir, "data.csv", b.String()); err != nil {
		return "", err
	}
	return "Ablations on Cycles (60 rounds × " + fmt.Sprint(sims) + " sims): " +
		"decay factor α ∈ {0.8…1.0}, ε₀ ∈ {0.1, 0.5, 1.0}, and the " +
		"tolerance grid (accuracy + mean selected hardware cost). See data.csv.", nil
}

// ---------------------------------------------------------------------
// policies — Algorithm 1 vs LinUCB / LinTS / greedy / random / oracle.

func runPolicies(cfg benchConfig, dir string) (string, error) {
	d, err := workloads.GenerateCycles(workloads.CyclesOptions{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	rows, err := experiment.RunSweep(experiment.SweepConfig{
		Dataset: d,
		NRounds: 100,
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
			"greedy": func(n, dim int, seed uint64) (policy.Policy, error) {
				return policy.NewGreedy(n, dim)
			},
			"softmax": func(n, dim int, seed uint64) (policy.Policy, error) {
				return policy.NewSoftmax(n, dim, 100, seed)
			},
			"random": func(n, dim int, seed uint64) (policy.Policy, error) {
				return policy.NewRandom(n, dim, seed)
			},
			"oracle": func(n, dim int, seed uint64) (policy.Policy, error) {
				return policy.NewOracle(n, dim, d.Truth)
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
	if err := experiment.WriteSweepCSV(f, rows); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Policy sweep on Cycles (100 rounds):\n\n| policy | final accuracy | mean regret (s) |\n|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %.3f | %.1f |\n", r.Policy, r.FinalAccuracy, r.MeanRegret)
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------
// clustersim — online loop on the simulated NDP cluster.

func runClusterSim(cfg benchConfig, dir string) (string, error) {
	return clusterComparison(cfg, dir)
}

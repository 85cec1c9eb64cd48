package experiment

import (
	"errors"
	"fmt"

	"banditware/internal/regress"
	"banditware/internal/rng"
	"banditware/internal/stats"
	"banditware/internal/workloads"
)

// LinRegConfig configures the linear-regression baseline experiment
// (Figures 5 and 8): train NModels independent recommenders on small
// random samples and record the distribution of their scores over the
// full trace.
type LinRegConfig struct {
	// Dataset is the workload trace.
	Dataset *workloads.Dataset
	// NModels is the number of independent models. 0 selects the
	// paper's 100.
	NModels int
	// TrainN is the per-model training sample size. 0 selects the
	// paper's 25.
	TrainN int
	// Normalize reports RMSE in units of the trace's runtime standard
	// deviation (the scale-free form the paper's BP3D Figure 5 uses).
	Normalize bool
	// ScaleFeatures standardises features (per-column z-score over the
	// full trace) before fitting and evaluation. Equivalent predictions
	// on well-conditioned data; essential when features span many orders
	// of magnitude (25-sample BP3D fits on raw byte counts are
	// numerically meaningless).
	ScaleFeatures bool
	// Pooled fits one model over the whole sample, ignoring which
	// hardware each row ran on, instead of one model per hardware arm.
	// With tiny samples over near-identical hardware (the paper's
	// 25-sample BP3D setting: 25 rows across 3 arms cannot support three
	// 8-parameter fits) pooling is the only statistically meaningful
	// estimator, and it reproduces the paper's Figure-5 score bands.
	Pooled bool
	// Seed drives sampling.
	Seed uint64
}

// LinRegResult holds the per-model score distributions.
type LinRegResult struct {
	RMSE []float64
	R2   []float64
}

// RMSESummary returns the five-number summary of the RMSE distribution.
func (r *LinRegResult) RMSESummary() (stats.Summary, error) { return stats.Summarize(r.RMSE) }

// R2Summary returns the five-number summary of the R² distribution.
func (r *LinRegResult) R2Summary() (stats.Summary, error) { return stats.Summarize(r.R2) }

// RunLinReg trains NModels per-arm OLS recommenders, each on TrainN rows
// sampled without replacement from the trace, and scores each over the
// full trace — the paper's comparison baseline.
func RunLinReg(cfg LinRegConfig) (*LinRegResult, error) {
	if cfg.Dataset == nil {
		return nil, errors.New("experiment: nil dataset")
	}
	if err := cfg.Dataset.Validate(); err != nil {
		return nil, err
	}
	if cfg.NModels == 0 {
		cfg.NModels = 100
	}
	if cfg.TrainN == 0 {
		cfg.TrainN = 25
	}
	if cfg.NModels < 0 || cfg.TrainN < 0 {
		return nil, fmt.Errorf("experiment: negative NModels/TrainN %d/%d", cfg.NModels, cfg.TrainN)
	}
	d := cfg.Dataset
	xs, y, arms := d.Pooled()
	if cfg.ScaleFeatures {
		xs, _, _ = regress.Standardize(xs)
	}
	r := rng.New(cfg.Seed)
	res := &LinRegResult{
		RMSE: make([]float64, 0, cfg.NModels),
		R2:   make([]float64, 0, cfg.NModels),
	}
	for m := 0; m < cfg.NModels; m++ {
		sample := regress.SampleRows(len(d.Runs), cfg.TrainN, r)
		var score regress.Score
		if cfg.Pooled {
			trainX := make([][]float64, 0, len(sample))
			trainY := make([]float64, 0, len(sample))
			for _, i := range sample {
				trainX = append(trainX, xs[i])
				trainY = append(trainY, d.Runs[i].Runtime)
			}
			model, err := regress.FitOLS(trainX, trainY, 0)
			if err != nil {
				return nil, fmt.Errorf("experiment: model %d: %w", m, err)
			}
			score, err = regress.Evaluate(model, xs, y)
			if err != nil {
				return nil, err
			}
		} else {
			trainX := make([][][]float64, len(d.Hardware))
			trainY := make([][]float64, len(d.Hardware))
			for _, i := range sample {
				run := d.Runs[i]
				trainX[run.Arm] = append(trainX[run.Arm], xs[i])
				trainY[run.Arm] = append(trainY[run.Arm], run.Runtime)
			}
			rec, err := regress.FitRecommender(d.Hardware, trainX, trainY, 0)
			if err != nil {
				return nil, fmt.Errorf("experiment: model %d: %w", m, err)
			}
			score, err = rec.EvaluatePooled(arms, xs, y)
			if err != nil {
				return nil, err
			}
		}
		rmse := score.RMSE
		if cfg.Normalize {
			rmse = score.NRMSE
		}
		res.RMSE = append(res.RMSE, rmse)
		res.R2 = append(res.R2, score.R2)
	}
	return res, nil
}

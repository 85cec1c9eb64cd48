// Package workloads reproduces the paper's three evaluation applications
// as trace-dataset generators with known ground truth:
//
//   - Cycles — the agroecosystem scientific workflow (Experiment 1), with
//     four synthetic hardware settings exhibiting clear trade-offs;
//   - BurnPro3D — the fire-science platform (Experiment 2), 1316 runs over
//     the seven Table-1 features on three nearly-identical NDP settings;
//   - MatMul — the fully-parallel tiled matrix-squaring application
//     (Experiment 3), 2520 runs over five hardware settings, where hardware
//     only matters for large matrices.
//
// The paper's real traces are not public, so each generator synthesises a
// dataset with the published shape (sizes, feature ranges, runtime scales,
// hardware separability) and exposes the generative ground truth so the
// experiment harness can compute exact best-arm labels and synthesise the
// counterfactual runtimes an online bandit observes.
package workloads

import (
	"errors"
	"fmt"
	"math"

	"banditware/internal/core"
	"banditware/internal/hardware"
	"banditware/internal/rng"
)

// Run is one recorded workflow execution.
type Run struct {
	// ID is the workflow identity (unique within a dataset).
	ID int
	// Arm is the hardware index the run executed on.
	Arm int
	// Features is the workflow's context vector.
	Features []float64
	// Runtime is the observed runtime in seconds.
	Runtime float64
}

// Dataset is a workload trace plus its generative ground truth.
type Dataset struct {
	// App names the application ("cycles", "bp3d", "matmul").
	App string
	// Hardware is the arm set the trace was collected on.
	Hardware hardware.Set
	// FeatureNames labels the feature vector components.
	FeatureNames []string
	// Runs is the recorded trace.
	Runs []Run
	// Truth returns the noise-free expected runtime of features x on arm.
	Truth func(arm int, x []float64) float64
	// Noise returns the runtime noise standard deviation for x on arm.
	Noise func(arm int, x []float64) float64
}

// ErrEmptyDataset is returned by operations that need at least one run.
var ErrEmptyDataset = errors.New("workloads: empty dataset")

// Validate checks internal consistency, ground truth included.
func (d *Dataset) Validate() error {
	if err := d.checkShape(); err != nil {
		return err
	}
	if d.Truth == nil || d.Noise == nil {
		return errors.New("workloads: dataset missing ground truth")
	}
	return nil
}

// checkShape checks what a recorded trace needs without its ground truth:
// a valid hardware set, at least one run, in-range arm indices, feature
// vectors of the declared length and finite runtimes.
func (d *Dataset) checkShape() error {
	if err := d.Hardware.Validate(); err != nil {
		return err
	}
	if len(d.Runs) == 0 {
		return ErrEmptyDataset
	}
	dim := len(d.FeatureNames)
	for i, r := range d.Runs {
		if len(r.Features) != dim {
			return fmt.Errorf("workloads: run %d has %d features, want %d", i, len(r.Features), dim)
		}
		if r.Arm < 0 || r.Arm >= len(d.Hardware) {
			return fmt.Errorf("workloads: run %d references arm %d of %d", i, r.Arm, len(d.Hardware))
		}
		if math.IsNaN(r.Runtime) || math.IsInf(r.Runtime, 0) {
			return fmt.Errorf("workloads: run %d has non-finite runtime", i)
		}
	}
	return nil
}

// Dim returns the feature dimension.
func (d *Dataset) Dim() int { return len(d.FeatureNames) }

// SampleRuntime draws one noisy runtime for features x on arm, using the
// dataset's generative model.
func (d *Dataset) SampleRuntime(arm int, x []float64, r *rng.Source) float64 {
	return d.Truth(arm, x) + r.Normal(0, d.Noise(arm, x))
}

// BestArm returns the arm Algorithm 1's tolerant selection would pick if
// it knew the true expected runtimes: within the tolerance envelope of the
// true fastest arm, the most resource-efficient arm wins. With zero
// tolerances this is the strict argmin of true runtime. This is the label
// against which the paper's "accuracy" metric is computed.
func (d *Dataset) BestArm(x []float64, tr, ts float64) int {
	preds := make([]float64, len(d.Hardware))
	for i := range preds {
		preds[i] = d.Truth(i, x)
	}
	return core.TolerantSelect(preds, d.Hardware, tr, ts)
}

// Pooled returns the whole trace as parallel slices (features, runtimes,
// arms) for pooled evaluation.
func (d *Dataset) Pooled() (xs [][]float64, y []float64, arms []int) {
	xs = make([][]float64, len(d.Runs))
	y = make([]float64, len(d.Runs))
	arms = make([]int, len(d.Runs))
	for i, r := range d.Runs {
		xs[i] = r.Features
		y[i] = r.Runtime
		arms[i] = r.Arm
	}
	return xs, y, arms
}

// ByArm splits the trace into per-arm feature/target groups, the shape
// regress.FitRecommender consumes.
func (d *Dataset) ByArm() (xs [][][]float64, y [][]float64) {
	xs = make([][][]float64, len(d.Hardware))
	y = make([][]float64, len(d.Hardware))
	for _, r := range d.Runs {
		xs[r.Arm] = append(xs[r.Arm], r.Features)
		y[r.Arm] = append(y[r.Arm], r.Runtime)
	}
	return xs, y
}

// SelectFeatures returns a copy of the dataset keeping only the named
// features (the paper's "area only" / "size only" ablations). The ground
// truth closes over default values for the dropped features: the mean of
// each dropped feature over the trace, so Truth stays well-defined.
func (d *Dataset) SelectFeatures(names ...string) (*Dataset, error) {
	keep := make([]int, 0, len(names))
	for _, n := range names {
		found := -1
		for j, fn := range d.FeatureNames {
			if fn == n {
				found = j
				break
			}
		}
		if found == -1 {
			return nil, fmt.Errorf("workloads: no feature %q", n)
		}
		keep = append(keep, found)
	}
	// Mean of every original feature, for reconstructing dropped ones.
	dim := len(d.FeatureNames)
	means := make([]float64, dim)
	if len(d.Runs) > 0 {
		for _, r := range d.Runs {
			for j, v := range r.Features {
				means[j] += v
			}
		}
		for j := range means {
			means[j] /= float64(len(d.Runs))
		}
	}
	expand := func(x []float64) []float64 {
		full := append([]float64(nil), means...)
		for k, j := range keep {
			if k < len(x) {
				full[j] = x[k]
			}
		}
		return full
	}
	out := &Dataset{
		App:          d.App,
		Hardware:     d.Hardware,
		FeatureNames: append([]string(nil), names...),
		Runs:         make([]Run, len(d.Runs)),
		Truth:        func(arm int, x []float64) float64 { return d.Truth(arm, expand(x)) },
		Noise:        func(arm int, x []float64) float64 { return d.Noise(arm, expand(x)) },
	}
	for i, r := range d.Runs {
		nf := make([]float64, len(keep))
		for k, j := range keep {
			nf[k] = r.Features[j]
		}
		out.Runs[i] = Run{ID: r.ID, Arm: r.Arm, Features: nf, Runtime: r.Runtime}
	}
	return out, nil
}

// Filter returns a copy of the dataset keeping only runs for which keep
// returns true (e.g. the paper's matmul "size >= 5000" subset).
func (d *Dataset) Filter(keep func(Run) bool) *Dataset {
	out := &Dataset{
		App:          d.App,
		Hardware:     d.Hardware,
		FeatureNames: d.FeatureNames,
		Truth:        d.Truth,
		Noise:        d.Noise,
	}
	for _, r := range d.Runs {
		if keep(r) {
			out.Runs = append(out.Runs, r)
		}
	}
	return out
}

// FeatureIndex returns the index of the named feature or -1.
func (d *Dataset) FeatureIndex(name string) int {
	for i, n := range d.FeatureNames {
		if n == name {
			return i
		}
	}
	return -1
}

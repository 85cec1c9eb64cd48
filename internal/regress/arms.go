package regress

import (
	"errors"
	"fmt"
	"math"

	"banditware/internal/linalg"
)

// ErrNotMergeable reports a delta operation on an estimator whose state
// is not additive: exponential forgetting discounts old information and
// a sliding window drops it, so "change since a base" is no longer a
// sum of per-observation terms.
var ErrNotMergeable = errors.New("regress: estimator state is not delta-mergeable")

// Arms is the per-arm estimator set of a linear-model bandit: one RLS
// estimator per arm, all with one ridge weight λ and one memory mode —
// exponential forgetting, a sliding window over each arm's last
// observations, or neither. Algorithm 1 (core.Bandit) and the linear
// policies (policy.Linear) both keep their models in an Arms, so an
// arm's estimator is built, slid, reset, added, removed and merged here
// and nowhere else.
//
// Arm indices are not range-checked: the caller owns the arm count and
// reports its own out-of-range error first.
type Arms struct {
	dim    int
	lambda float64
	forget float64 // (0, 1]; 1 = none
	window int     // 0 = none
	est    []*RLS
	// xs and ys are the per-arm window buffers (window > 0 only).
	xs [][][]float64
	ys [][]float64
}

// NewArms returns n untrained arms over dim features. lambda <= 0
// selects DefaultLambda. forget in (0, 1] is the forgetting factor
// (1 = none); window > 0 keeps only each arm's last window
// observations and refits from them on every update. The two modes are
// mutually exclusive.
func NewArms(n, dim int, lambda, forget float64, window int) (*Arms, error) {
	switch {
	case dim < 0:
		return nil, fmt.Errorf("regress: negative dimension %d", dim)
	case forget <= 0 || forget > 1:
		return nil, fmt.Errorf("regress: forgetting factor %v outside (0, 1]", forget)
	case window < 0:
		return nil, fmt.Errorf("regress: negative window %d", window)
	case forget < 1 && window > 0:
		return nil, errors.New("regress: forgetting and windowing are mutually exclusive")
	}
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	a := &Arms{dim: dim, lambda: lambda, forget: forget, window: window, est: make([]*RLS, n)}
	for i := range a.est {
		a.est[i] = a.fresh()
	}
	if window > 0 {
		a.xs = make([][][]float64, n)
		a.ys = make([][]float64, n)
	}
	return a, nil
}

// fresh returns an untrained estimator in the set's memory mode.
func (a *Arms) fresh() *RLS { return newRLS(a.dim, a.lambda, a.forget) }

// Len returns the number of arms.
func (a *Arms) Len() int { return len(a.est) }

// At returns arm i's live estimator. A windowed update or a reset
// replaces it, so do not retain it across either.
func (a *Arms) At(i int) *RLS { return a.est[i] }

// Estimators returns the live estimators, index-aligned with the arms
// (shared; do not mutate).
func (a *Arms) Estimators() []*RLS { return a.est }

// Adaptation returns the memory mode: the forgetting factor (1 = none),
// the window length (0 = none) and, for a windowed set, the live
// per-arm window buffers (shared; do not mutate).
func (a *Arms) Adaptation() (forget float64, window int, xs [][][]float64, ys [][]float64) {
	return a.forget, a.window, a.xs, a.ys
}

// Update absorbs one observation into arm i. A windowed arm appends it
// to its buffer (evicting past the window) and rebuilds its estimator
// from the retained observations; the observation is validated before
// it is buffered, so a rejected value never poisons the window. x is
// copied; the caller may reuse it.
func (a *Arms) Update(i int, x []float64, y float64) error {
	if a.window == 0 {
		return a.est[i].Update(x, y)
	}
	if !linalg.VecIsFinite(x) || math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("%w: non-finite observation", ErrBadInput)
	}
	xs := append(a.xs[i], append([]float64(nil), x...))
	ys := append(a.ys[i], y)
	if drop := len(ys) - a.window; drop > 0 {
		xs = append(xs[:0], xs[drop:]...)
		ys = append(ys[:0], ys[drop:]...)
	}
	a.xs[i], a.ys[i] = xs, ys
	fresh := newRLS(a.dim, a.lambda, 1)
	for j := range ys {
		if err := fresh.Update(xs[j], ys[j]); err != nil {
			return err
		}
	}
	a.est[i] = fresh
	return nil
}

// Reset restores arm i to the untrained prior, dropping its window.
func (a *Arms) Reset(i int) {
	a.est[i] = a.fresh()
	if a.window > 0 {
		a.xs[i], a.ys[i] = nil, nil
	}
}

// Add appends one untrained arm.
func (a *Arms) Add() {
	a.est = append(a.est, a.fresh())
	if a.window > 0 {
		a.xs = append(a.xs, nil)
		a.ys = append(a.ys, nil)
	}
}

// Remove retires arm i, shifting every later arm down by one.
func (a *Arms) Remove(i int) {
	a.est = append(a.est[:i], a.est[i+1:]...)
	if a.window > 0 {
		a.xs = append(a.xs[:i], a.xs[i+1:]...)
		a.ys = append(a.ys[:i], a.ys[i+1:]...)
	}
}

// mergeable reports ErrNotMergeable when the memory mode keeps the
// arms' state from being a pure sum of observation contributions. The
// mode is fixed for the set's lifetime.
func (a *Arms) mergeable() error {
	if a.window > 0 {
		return fmt.Errorf("%w: sliding-window adaptation", ErrNotMergeable)
	}
	if a.forget < 1 {
		return fmt.Errorf("%w: exponential forgetting", ErrNotMergeable)
	}
	return nil
}

// Sufficient returns arm i's current information-form statistics.
func (a *Arms) Sufficient(i int) (Sufficient, error) {
	if err := a.mergeable(); err != nil {
		return Sufficient{}, err
	}
	return a.est[i].Sufficient(), nil
}

// Prior returns the statistics of arm i's untrained prior — the delta
// base after the arm was reset.
func (a *Arms) Prior(i int) (Sufficient, error) {
	if err := a.mergeable(); err != nil {
		return Sufficient{}, err
	}
	return a.est[i].Prior(), nil
}

// Merge folds a peer's additive delta into arm i.
func (a *Arms) Merge(i int, delta Sufficient) error {
	if err := a.mergeable(); err != nil {
		return err
	}
	return a.est[i].ApplyDelta(delta)
}

// CheckEstimators validates persisted estimators against a declared
// shape: n non-nil estimators of dimension dim. Restores run it before
// building anything of that shape — the estimators were sized by their
// own payload, the declared shape by nothing.
func CheckEstimators(est []*RLS, n, dim int) error {
	if len(est) != n {
		return fmt.Errorf("%w: %d estimators for %d arms", ErrBadInput, len(est), n)
	}
	for i, r := range est {
		if r == nil {
			return fmt.Errorf("%w: arm %d missing estimator", ErrBadInput, i)
		}
		if r.Dim() != dim {
			return fmt.Errorf("%w: arm %d estimator has dim %d, want %d", ErrBadInput, i, r.Dim(), dim)
		}
	}
	return nil
}

// Restore adopts persisted estimators and, for a windowed set, window
// buffers (ignored otherwise), after checking them against the set's
// shape. Each estimator keeps the forgetting factor it was saved with.
func (a *Arms) Restore(est []*RLS, xs [][][]float64, ys [][]float64) error {
	if err := CheckEstimators(est, len(a.est), a.dim); err != nil {
		return err
	}
	if a.window > 0 {
		if len(xs) != len(est) || len(ys) != len(est) {
			return fmt.Errorf("%w: %d/%d window buffers for %d arms", ErrBadInput, len(xs), len(ys), len(est))
		}
		for i := range xs {
			if len(xs[i]) != len(ys[i]) || len(ys[i]) > a.window {
				return fmt.Errorf("%w: arm %d window holds %d/%d values (cap %d)",
					ErrBadInput, i, len(xs[i]), len(ys[i]), a.window)
			}
			for _, x := range xs[i] {
				if len(x) != a.dim {
					return fmt.Errorf("%w: arm %d window features have dim %d, want %d", ErrBadInput, i, len(x), a.dim)
				}
			}
		}
		a.xs, a.ys = xs, ys
	}
	a.est = est
	return nil
}

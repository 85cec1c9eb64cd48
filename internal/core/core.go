// Package core implements the paper's primary contribution: Algorithm 1,
// the Decaying Contextual ε-Greedy Strategy with Tolerant Selection.
//
// A Bandit maintains one linear runtime model R̂(H_i, x) = wᵢᵀx + bᵢ per
// hardware arm. For each incoming workflow it either explores (uniformly
// random arm, probability ε) or exploits via tolerant selection: among all
// arms whose predicted runtime is within
//
//	R_limit = (1 + tolerance_ratio)·R̂(H_fastest, x) + tolerance_seconds
//
// it chooses the most resource-efficient arm. After observing the actual
// runtime it refits the chosen arm's model and decays ε ← α·ε.
//
// Per-arm fitting uses recursive least squares, which is algebraically
// equivalent to the paper's per-round batch least-squares refit (up to the
// infinitesimal ridge prior) while costing O(d²) per observation. A
// paper-literal batch refit mode is available for cross-checking
// (Options.BatchRefit); the equivalence is verified in the tests.
package core

import (
	"errors"
	"fmt"
	"math"

	"banditware/internal/hardware"
	"banditware/internal/regress"
	"banditware/internal/rng"
	"banditware/internal/stats"
)

// Errors returned by the bandit.
var (
	ErrDim      = errors.New("core: feature dimension mismatch")
	ErrArm      = errors.New("core: arm index out of range")
	ErrBadValue = errors.New("core: non-finite observation")
)

// Options configures Algorithm 1. The zero value selects the paper's
// experimental settings (α = 0.99, ε₀ = 1, zero tolerances).
type Options struct {
	// Alpha is the multiplicative ε decay factor per observed workflow.
	// 0 selects the paper's 0.99.
	Alpha float64
	// Epsilon0 is the initial exploration probability. Negative values are
	// rejected; 0 means "use the paper's 1.0" unless ZeroEpsilon is set.
	Epsilon0 float64
	// ZeroEpsilon forces ε₀ = 0 (pure exploitation), distinguishing an
	// intentional zero from the unset zero value.
	ZeroEpsilon bool
	// MinEpsilon is a floor on ε (an extension; the paper decays to 0).
	MinEpsilon float64
	// ToleranceRatio is the paper's tolerance_ratio (t_r).
	ToleranceRatio float64
	// ToleranceSeconds is the paper's tolerance_seconds (t_s).
	ToleranceSeconds float64
	// RidgeLambda is the RLS prior weight; 0 selects regress.DefaultLambda.
	RidgeLambda float64
	// ForgettingFactor, when in (0, 1), makes the per-arm models discount
	// old observations exponentially (effective memory ≈ 1/(1−factor)
	// samples), so the recommender tracks hardware whose performance
	// drifts over time. 0 (and 1) mean no forgetting — the paper's
	// stationary setting.
	ForgettingFactor float64
	// WindowSize, when positive, makes each arm retain only its last
	// WindowSize observations and refit from that sliding window on
	// every Observe — a hard-memory alternative to ForgettingFactor for
	// non-stationary environments (old observations vanish entirely
	// instead of fading). Mutually exclusive with ForgettingFactor and
	// BatchRefit. Costs O(WindowSize·d²) per observe.
	WindowSize int `json:"WindowSize,omitempty"`
	// Seed drives the exploration randomness.
	Seed uint64
	// BatchRefit stores every observation and refits the chosen arm by
	// batch least squares on each Observe — the literal Algorithm 1 line
	// 11. Slower (O(n·d²) per observe) and numerically equivalent.
	BatchRefit bool
	// FeatureScale holds optional per-feature divisors applied before
	// fitting and prediction. When workload features span many orders of
	// magnitude (BurnPro3D mixes byte counts ~10¹⁰ with moisture
	// fractions ~0.3) the unscaled early-round least-squares models
	// extrapolate wildly; dividing by a rough magnitude (e.g. the
	// trace's per-feature standard deviation) keeps them tame. Exported
	// models (Model, SaveState) are always in raw feature space.
	FeatureScale []float64
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.99
	}
	if o.Epsilon0 == 0 && !o.ZeroEpsilon {
		o.Epsilon0 = 1
	}
	return o
}

// Validate rejects non-sensical parameters.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.Alpha < 0 || o.Alpha > 1 {
		return fmt.Errorf("core: alpha %v outside [0,1]", o.Alpha)
	}
	if o.Epsilon0 < 0 || o.Epsilon0 > 1 {
		return fmt.Errorf("core: epsilon0 %v outside [0,1]", o.Epsilon0)
	}
	if o.MinEpsilon < 0 || o.MinEpsilon > 1 {
		return fmt.Errorf("core: min epsilon %v outside [0,1]", o.MinEpsilon)
	}
	if o.ToleranceRatio < 0 {
		return fmt.Errorf("core: negative tolerance ratio %v", o.ToleranceRatio)
	}
	if o.ToleranceSeconds < 0 {
		return fmt.Errorf("core: negative tolerance seconds %v", o.ToleranceSeconds)
	}
	if o.ForgettingFactor < 0 || o.ForgettingFactor > 1 {
		return fmt.Errorf("core: forgetting factor %v outside [0,1]", o.ForgettingFactor)
	}
	if o.WindowSize < 0 {
		return fmt.Errorf("core: negative window size %d", o.WindowSize)
	}
	if o.WindowSize > 0 {
		if o.ForgettingFactor > 0 && o.ForgettingFactor < 1 {
			return fmt.Errorf("core: window size and forgetting factor are mutually exclusive")
		}
		if o.BatchRefit {
			return fmt.Errorf("core: window size and batch refit are mutually exclusive")
		}
	}
	return nil
}

// arm is the per-hardware state beyond the arm's estimator (which lives
// in Bandit.est): the stored observations D_i for batch refitting and
// the cached prediction model.
type arm struct {
	xs    [][]float64
	ys    []float64
	model regress.Model // snapshot used for predictions

	// residual variance tracker (squared one-step-ahead prediction
	// errors) feeding the confidence intervals.
	resid stats.Welford
}

// Bandit is the Algorithm 1 recommender. It is not safe for concurrent
// use; wrap it or shard per goroutine.
type Bandit struct {
	opts  Options
	hw    hardware.Set
	dim   int
	eps   float64
	est   *regress.Arms // per-arm estimators, forgetting and windows
	arms  []*arm
	rnd   *rng.Source
	round int

	scaleBuf []float64 // scratch for feature scaling
	predBuf  []float64 // scratch predictions for Exploit/Observe
	candBuf  []int     // scratch tolerant-selection candidate set
}

// scaled returns x divided elementwise by the configured feature scale
// (or x itself when no scaling is configured). The returned slice is a
// shared scratch buffer — do not retain it.
func (b *Bandit) scaled(x []float64) []float64 {
	if b.opts.FeatureScale == nil {
		return x
	}
	for i, v := range x {
		b.scaleBuf[i] = v / b.opts.FeatureScale[i]
	}
	return b.scaleBuf
}

// New constructs a bandit over the given hardware set for workflows with
// dim features.
func New(hw hardware.Set, dim int, opts Options) (*Bandit, error) {
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	if dim < 0 {
		return nil, fmt.Errorf("core: negative feature dimension %d", dim)
	}
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.FeatureScale != nil {
		if len(opts.FeatureScale) != dim {
			return nil, fmt.Errorf("core: feature scale has %d entries, want %d", len(opts.FeatureScale), dim)
		}
		for i, s := range opts.FeatureScale {
			if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
				return nil, fmt.Errorf("core: feature scale[%d] = %v must be positive and finite", i, s)
			}
		}
	}
	b := &Bandit{
		opts:     opts,
		hw:       hw,
		dim:      dim,
		eps:      opts.Epsilon0,
		rnd:      rng.New(opts.Seed),
		scaleBuf: make([]float64, dim),
	}
	forget := opts.ForgettingFactor
	if forget == 0 {
		forget = 1
	}
	est, err := regress.NewArms(len(hw), dim, opts.RidgeLambda, forget, opts.WindowSize)
	if err != nil {
		return nil, err
	}
	b.est = est
	b.arms = make([]*arm, len(hw))
	for i := range b.arms {
		b.arms[i] = &arm{model: regress.Zero(dim)}
	}
	return b, nil
}

// NumArms returns the number of hardware arms.
func (b *Bandit) NumArms() int { return len(b.arms) }

// Dim returns the feature dimension.
func (b *Bandit) Dim() int { return b.dim }

// Epsilon returns the current exploration probability.
func (b *Bandit) Epsilon() float64 { return b.eps }

// Round returns the number of observations absorbed so far.
func (b *Bandit) Round() int { return b.round }

// Hardware returns the hardware set (shared; do not mutate).
func (b *Bandit) Hardware() hardware.Set { return b.hw }

// Model returns a snapshot of arm i's current linear model in raw
// feature space (feature scaling, if configured, is folded into the
// weights).
func (b *Bandit) Model(i int) (regress.Model, error) {
	if i < 0 || i >= len(b.arms) {
		return regress.Model{}, ErrArm
	}
	m := b.arms[i].model.Clone()
	if b.opts.FeatureScale != nil {
		for j := range m.Weights {
			m.Weights[j] /= b.opts.FeatureScale[j]
		}
	}
	return m, nil
}

// ArmObservations returns how many observations arm i has absorbed.
func (b *Bandit) ArmObservations(i int) (int, error) {
	if i < 0 || i >= len(b.arms) {
		return 0, ErrArm
	}
	return b.est.At(i).N(), nil
}

// PredictAll returns the estimated runtime R̂(H_i, x) for every arm
// (Algorithm 1, line 5).
func (b *Bandit) PredictAll(x []float64) ([]float64, error) {
	return b.PredictAllInto(x, make([]float64, 0, len(b.arms)))
}

// PredictAllInto is PredictAll appending into out (typically a reused
// buffer sliced to out[:0]) — the allocation-free form for hot paths.
func (b *Bandit) PredictAllInto(x, out []float64) ([]float64, error) {
	if len(x) != b.dim {
		return nil, ErrDim
	}
	sx := b.scaled(x)
	for _, a := range b.arms {
		out = append(out, a.model.Predict(sx))
	}
	return out, nil
}

// Decision records one recommendation.
type Decision struct {
	// Arm is the selected hardware index.
	Arm int
	// Explored reports whether the arm came from the ε random branch.
	Explored bool
	// Predicted holds the per-arm runtime estimates used.
	Predicted []float64
	// Epsilon is the exploration probability at decision time.
	Epsilon float64
}

// Recommend runs lines 5–7 of Algorithm 1 for a workflow with features x.
// It does not change any state except consuming randomness.
func (b *Bandit) Recommend(x []float64) (Decision, error) {
	var d Decision
	if err := b.RecommendInto(x, &d); err != nil {
		return Decision{}, err
	}
	return d, nil
}

// RecommendInto is Recommend writing into d, reusing d.Predicted's
// backing array — the allocation-free form for hot paths. It consumes
// exactly the randomness Recommend would, so the two are drop-in
// equivalent on a fixed seed.
func (b *Bandit) RecommendInto(x []float64, d *Decision) error {
	preds, err := b.PredictAllInto(x, d.Predicted[:0])
	if err != nil {
		return err
	}
	d.Predicted = preds
	d.Epsilon = b.eps
	d.Explored = false
	if b.rnd.Float64() < b.eps {
		d.Arm = b.rnd.Intn(len(b.arms))
		d.Explored = true
		return nil
	}
	d.Arm, b.candBuf = tolerantSelectInto(preds, b.hw, b.opts.ToleranceRatio, b.opts.ToleranceSeconds, b.candBuf[:0])
	return nil
}

// TolerantSelect implements Algorithm 1's exploitation branch: find the
// minimum predicted runtime, form the tolerance threshold
// R_limit = (1+tr)·R̂_fastest + ts, and among arms within the threshold
// return the most resource-efficient. Non-finite predictions are excluded;
// if every prediction is non-finite, arm 0 is returned.
//
// Runtimes are physically non-negative, so the envelope is anchored at
// max(R̂_fastest, 0): a linear model extrapolating below zero (common when
// fitting a line to superlinear data at small inputs) must not collapse
// the tolerance window to nothing.
func TolerantSelect(preds []float64, hw hardware.Set, tr, ts float64) int {
	arm, _ := tolerantSelectInto(preds, hw, tr, ts, nil)
	return arm
}

// tolerantSelectInto is TolerantSelect building its candidate set in
// buf (typically a reused scratch sliced to buf[:0]); it returns the
// chosen arm and the possibly-grown buffer for the caller to retain.
func tolerantSelectInto(preds []float64, hw hardware.Set, tr, ts float64, buf []int) (int, []int) {
	fastest := -1
	for i, p := range preds {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			continue
		}
		if fastest == -1 || p < preds[fastest] {
			fastest = i
		}
	}
	if fastest == -1 {
		return 0, buf
	}
	base := preds[fastest]
	if base < 0 {
		base = 0
	}
	limit := (1+tr)*base + ts
	for i, p := range preds {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			continue
		}
		if p <= limit {
			buf = append(buf, i)
		}
	}
	// The fastest arm is within its own envelope except when a negative
	// prediction shrinks the ratio term below itself; keep it reachable.
	if len(buf) == 0 {
		return fastest, buf
	}
	if best := hw.MostEfficient(buf); best >= 0 {
		return best, buf
	}
	return fastest, buf
}

// Interval is a symmetric prediction interval.
type Interval struct {
	Lo, Mid, Hi float64
}

// PredictWithCI returns, for every arm, the runtime estimate with an
// approximate prediction interval Mid ± z·σ̂ᵢ·√(1 + u), where σ̂ᵢ is the
// arm's one-step-ahead residual standard deviation and u = xᵀ(XᵀX+λI)⁻¹x
// is the parameter-uncertainty term from the arm's estimator. z <= 0
// selects 1.96 (~95%). Arms with fewer than two observations report
// infinite intervals — honest ignorance.
func (b *Bandit) PredictWithCI(x []float64, z float64) ([]Interval, error) {
	if len(x) != b.dim {
		return nil, ErrDim
	}
	if z <= 0 {
		z = 1.96
	}
	sx := b.scaled(x)
	out := make([]Interval, len(b.arms))
	for i, a := range b.arms {
		mid := a.model.Predict(sx)
		out[i].Mid = mid
		if a.resid.N() < 2 {
			out[i].Lo = math.Inf(-1)
			out[i].Hi = math.Inf(1)
			continue
		}
		u := b.est.At(i).Uncertainty(sx)
		half := z * a.resid.StdDev() * math.Sqrt(1+u)
		out[i].Lo = mid - half
		out[i].Hi = mid + half
	}
	return out, nil
}

// Exploit returns the tolerant selection for features x without consuming
// any exploration randomness — the pure "line 7" decision. Evaluation
// harnesses use it to measure model quality independent of ε.
func (b *Bandit) Exploit(x []float64) (int, error) {
	preds, err := b.PredictAllInto(x, b.predBuf[:0])
	if err != nil {
		return 0, err
	}
	b.predBuf = preds
	var arm int
	arm, b.candBuf = tolerantSelectInto(preds, b.hw, b.opts.ToleranceRatio, b.opts.ToleranceSeconds, b.candBuf[:0])
	return arm, nil
}

// Observe runs lines 9–12 of Algorithm 1: record the actual runtime of the
// workflow on the chosen arm, refit that arm's model, and decay ε.
func (b *Bandit) Observe(armIdx int, x []float64, runtime float64) error {
	if armIdx < 0 || armIdx >= len(b.arms) {
		return ErrArm
	}
	if len(x) != b.dim {
		return ErrDim
	}
	if math.IsNaN(runtime) || math.IsInf(runtime, 0) {
		return ErrBadValue
	}
	a := b.arms[armIdx]
	sx := b.scaled(x)
	// One-step-ahead residual, recorded before the model absorbs the
	// observation (an honest out-of-sample error).
	a.resid.Add(runtime - a.model.Predict(sx))
	if err := b.est.Update(armIdx, sx, runtime); err != nil {
		return err
	}
	rls := b.est.At(armIdx)
	if b.opts.BatchRefit {
		a.xs = append(a.xs, append([]float64(nil), sx...))
		a.ys = append(a.ys, runtime)
		m, err := regress.FitOLS(a.xs, a.ys, b.opts.RidgeLambda)
		if err != nil {
			// Degenerate designs (e.g. a single repeated point) fall back
			// to the online estimate, which is always defined.
			m = rls.Model()
		}
		a.model = m
	} else {
		rls.ModelInto(&a.model)
	}
	b.decayLocked()
	return nil
}

// decayLocked advances the round counter and decays ε — the shared tail
// of every Observe path.
func (b *Bandit) decayLocked() {
	b.round++
	b.eps *= b.opts.Alpha
	if b.eps < b.opts.MinEpsilon {
		b.eps = b.opts.MinEpsilon
	}
}

// ResetArm drops arm i's learned state — estimator, model, stored
// window/batch observations, residual tracker — restoring it to the
// freshly constructed prior. The round counter, ε, and the other arms
// are untouched. The serving layer uses it to refit a single arm after
// an online drift detection.
func (b *Bandit) ResetArm(i int) error {
	if i < 0 || i >= len(b.arms) {
		return ErrArm
	}
	b.est.Reset(i)
	b.arms[i] = &arm{model: regress.Zero(b.dim)}
	return nil
}

// AddArm grows the bandit with one new hardware configuration at
// runtime. The new arm starts from the ridge prior (callers that want
// a warm start merge sufficient statistics afterwards via
// MergeArmDelta). Returns the new arm's index.
//
// The hardware set is copied on append: callers may hold references
// to the previous Hardware() slice.
func (b *Bandit) AddArm(cfg hardware.Config) (int, error) {
	hw := append(append(hardware.Set{}, b.hw...), cfg)
	if err := hw.Validate(); err != nil {
		return 0, err
	}
	b.hw = hw
	b.est.Add()
	b.arms = append(b.arms, &arm{model: regress.Zero(b.dim)})
	return len(b.arms) - 1, nil
}

// RemoveArm retires arm i, discarding its estimator and shifting the
// indices of every later arm down by one. The last remaining arm
// cannot be removed.
func (b *Bandit) RemoveArm(i int) error {
	if i < 0 || i >= len(b.arms) {
		return ErrArm
	}
	if len(b.arms) == 1 {
		return fmt.Errorf("core: cannot remove the last arm")
	}
	b.hw = append(append(hardware.Set{}, b.hw[:i]...), b.hw[i+1:]...)
	b.est.Remove(i)
	b.arms = append(b.arms[:i], b.arms[i+1:]...)
	return nil
}

// Delta hooks for replicated serving: ArmSufficient and ArmPrior feed
// delta extraction (an arm's information-form statistics over scaled
// features, and its prior as the base after a reset), MergeArmDelta
// folds a peer's delta in, and AbsorbRounds replays the peer's rounds.
// The arm hooks fail with regress.ErrNotMergeable unless the per-arm
// state is a pure sum of observation contributions: sliding windows and
// exponential forgetting are not (see regress.Arms), and
// batch refit keeps raw observations a delta would have to ship.

// mergeableArm reports regress.ErrNotMergeable for batch refit, and
// ErrArm for an out-of-range arm; the estimator set checks its own
// memory mode.
func (b *Bandit) mergeableArm(i int) error {
	if b.opts.BatchRefit {
		return fmt.Errorf("%w: batch refit retains raw observations", regress.ErrNotMergeable)
	}
	if i < 0 || i >= len(b.arms) {
		return ErrArm
	}
	return nil
}

// ArmSufficient returns arm i's current sufficient statistics.
func (b *Bandit) ArmSufficient(i int) (regress.Sufficient, error) {
	if err := b.mergeableArm(i); err != nil {
		return regress.Sufficient{}, err
	}
	return b.est.Sufficient(i)
}

// ArmPrior returns the sufficient statistics of arm i's untrained prior.
func (b *Bandit) ArmPrior(i int) (regress.Sufficient, error) {
	if err := b.mergeableArm(i); err != nil {
		return regress.Sufficient{}, err
	}
	return b.est.Prior(i)
}

// MergeArmDelta folds a peer's additive delta into arm i and refreshes
// the arm's prediction model. The residual-variance tracker is not
// merged — it feeds only the advisory confidence intervals and remains
// a local estimate.
func (b *Bandit) MergeArmDelta(i int, delta regress.Sufficient) error {
	if err := b.mergeableArm(i); err != nil {
		return err
	}
	if err := b.est.Merge(i, delta); err != nil {
		return err
	}
	b.arms[i].model = b.est.At(i).Model()
	return nil
}

// AbsorbRounds replays k rounds' worth of ε decay and round-counter
// advance, as if this bandit had observed the k observations a peer's
// delta carries. Each round applies the same ε ← α·ε (floored at
// MinEpsilon) step as Observe, so a replica that merges peers' rounds
// walks the exact decay schedule of a single node seeing all traffic.
func (b *Bandit) AbsorbRounds(k int) error {
	if k < 0 {
		return fmt.Errorf("core: negative round count %d", k)
	}
	for j := 0; j < k; j++ {
		b.decayLocked()
	}
	return nil
}

// Step is the full Algorithm 1 loop body for one workflow: recommend, let
// the caller run the workflow via run (which returns the actual runtime on
// the chosen hardware), then observe. It returns the decision and runtime.
func (b *Bandit) Step(x []float64, run func(armIdx int) float64) (Decision, float64, error) {
	d, err := b.Recommend(x)
	if err != nil {
		return Decision{}, 0, err
	}
	rt := run(d.Arm)
	if err := b.Observe(d.Arm, x, rt); err != nil {
		return d, rt, err
	}
	return d, rt, nil
}

package policy

import (
	"errors"
	"fmt"
	"math"

	"banditware/internal/regress"
	"banditware/internal/rng"
	"banditware/internal/stats"
)

// Linear is a contextual bandit over per-arm linear runtime models whose
// selection rule is one of five types, each with at most one parameter:
//
//   - TypeGreedy always picks the arm with the minimum predicted runtime.
//     Untrained arms predict zero, so it self-bootstraps by trying each
//     arm once on early rounds.
//   - TypeEpsGreedy explores uniformly with fixed probability ε and
//     otherwise exploits. With dim = 0 the models degenerate to running
//     means and the policy is the classic (non-contextual) ε-greedy of
//     the paper's Figure 2.
//   - TypeLinUCB minimises the lower confidence bound
//     R̂(H_i, x) − β·√(xᵀPᵢx): optimism in the face of uncertainty,
//     phrased for runtime minimisation.
//   - TypeLinTS is linear Thompson sampling: per decision it draws one
//     weight vector per arm from the Gaussian posterior N(wᵢ, v²Pᵢ) and
//     picks the arm whose sampled model predicts the smallest runtime.
//   - TypeSoftmax (Boltzmann exploration) picks arm i with probability
//     ∝ exp(−R̂(H_i, x)/τ); a lower temperature τ exploits harder.
//
// Construct with the New* function of the rule.
type Linear struct {
	dim   int
	arms  *regress.Arms // per-arm estimators, forgetting and windows
	kind  string        // the selection rule: one of the five types above
	param float64       // ε, β, posterior scale v or temperature τ; 0 for greedy
	seed  uint64
	// rnd drives exploration (nil for greedy and LinUCB, which draw no
	// randomness); unit is its standard-normal draw, bound once so
	// LinTS's per-decision sampling does not allocate a closure.
	rnd  *rng.Source
	unit func() float64
	// preds and scores are per-decision scratch: the arms' mean
	// predictions (Select, Exploit) and the rule's selection scores.
	preds  []float64
	scores []float64
}

// NewFixedEpsilonGreedy constructs the ε-greedy policy. eps must lie in
// [0, 1].
func NewFixedEpsilonGreedy(numArms, dim int, eps float64, seed uint64) (*Linear, error) {
	return newLinear(TypeEpsGreedy, numArms, dim, eps, seed)
}

// NewGreedy constructs the greedy (ε = 0) policy.
func NewGreedy(numArms, dim int) (*Linear, error) {
	return newLinear(TypeGreedy, numArms, dim, 0, 0)
}

// NewLinUCB constructs the LinUCB policy. beta scales the confidence
// width; it must be positive.
func NewLinUCB(numArms, dim int, beta float64) (*Linear, error) {
	return newLinear(TypeLinUCB, numArms, dim, beta, 0)
}

// NewLinTS constructs the linear Thompson-sampling policy. v scales the
// posterior; it must be positive.
func NewLinTS(numArms, dim int, v float64, seed uint64) (*Linear, error) {
	return newLinear(TypeLinTS, numArms, dim, v, seed)
}

// NewSoftmax constructs the softmax policy. temp must be positive.
func NewSoftmax(numArms, dim int, temp float64, seed uint64) (*Linear, error) {
	return newLinear(TypeSoftmax, numArms, dim, temp, seed)
}

// newLinear validates the rule and its parameter and builds untrained
// arms. The seed is kept only by the rules that draw randomness.
func newLinear(kind string, numArms, dim int, param float64, seed uint64) (*Linear, error) {
	random := true
	switch kind {
	case TypeGreedy:
		random = false
	case TypeEpsGreedy:
		if param < 0 || param > 1 {
			return nil, fmt.Errorf("policy: epsilon %v outside [0,1]", param)
		}
	case TypeLinUCB:
		if param <= 0 {
			return nil, fmt.Errorf("policy: non-positive beta %v", param)
		}
		random = false
	case TypeLinTS:
		if param <= 0 {
			return nil, fmt.Errorf("policy: non-positive posterior scale %v", param)
		}
	case TypeSoftmax:
		if param <= 0 {
			return nil, fmt.Errorf("policy: non-positive temperature %v", param)
		}
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, kind)
	}
	if numArms < 1 {
		return nil, errors.New("policy: need at least one arm")
	}
	arms, err := regress.NewArms(numArms, dim, 0, 1, 0)
	if err != nil {
		return nil, err
	}
	l := &Linear{dim: dim, arms: arms, kind: kind, param: param}
	if random {
		l.seed = seed
		l.rnd = rng.New(seed)
		l.unit = func() float64 { return l.rnd.Normal(0, 1) }
	}
	return l, nil
}

// Name implements Policy: the rule and its parameter, e.g. "linucb(1.5)".
func (l *Linear) Name() string {
	if l.kind == TypeGreedy {
		return TypeGreedy
	}
	return fmt.Sprintf("%s(%.2g)", l.kind, l.param)
}

// Select implements Policy.
func (l *Linear) Select(x []float64) (int, error) {
	arm, preds, err := l.SelectInto(x, l.preds[:0])
	if err == nil {
		l.preds = preds
	}
	return arm, err
}

// SelectInto is Select that also appends the arms' mean predictions to
// preds and returns them — one model pass serves both the decision and
// the per-arm estimates a serving layer renders. Randomness is consumed
// exactly as Select consumes it.
func (l *Linear) SelectInto(x, preds []float64) (int, []float64, error) {
	preds, err := l.PredictAllInto(x, preds)
	if err != nil {
		return 0, nil, err
	}
	switch l.kind {
	case TypeEpsGreedy:
		if l.rnd.Float64() < l.param {
			return l.rnd.Intn(l.arms.Len()), preds, nil
		}
	case TypeLinUCB:
		scores := l.scores[:0]
		for i, a := range l.arms.Estimators() {
			scores = append(scores, preds[i]-l.param*math.Sqrt(a.Uncertainty(x)))
		}
		l.scores = scores
		return stats.ArgMin(scores), preds, nil
	case TypeLinTS:
		scores := l.scores[:0]
		for _, a := range l.arms.Estimators() {
			scores = append(scores, a.SamplePredict(l.param, l.unit, x))
		}
		l.scores = scores
		return stats.ArgMin(scores), preds, nil
	case TypeSoftmax:
		return l.softmaxDraw(preds), preds, nil
	}
	return stats.ArgMin(preds), preds, nil
}

// softmaxDraw samples an arm with probability ∝ exp(−pred/τ), shifting
// by the minimum prediction for numerical stability.
func (l *Linear) softmaxDraw(preds []float64) int {
	minPred := stats.Min(preds)
	weights := l.scores[:0]
	total := 0.0
	for _, pr := range preds {
		w := math.Exp(-(pr - minPred) / l.param)
		weights = append(weights, w)
		total += w
	}
	l.scores = weights
	u := l.rnd.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(preds) - 1
}

// Exploit implements Exploiter: the arm with the minimum mean predicted
// runtime (no exploration, confidence bonus or posterior sample).
func (l *Linear) Exploit(x []float64) (int, error) {
	preds, err := l.PredictAllInto(x, l.preds[:0])
	if err != nil {
		return 0, err
	}
	l.preds = preds
	return stats.ArgMin(preds), nil
}

// PredictAllInto appends every arm's mean runtime prediction for x to
// out (typically a reused buffer sliced to out[:0]).
func (l *Linear) PredictAllInto(x, out []float64) ([]float64, error) {
	if len(x) != l.dim {
		return nil, ErrDim
	}
	for _, a := range l.arms.Estimators() {
		out = append(out, a.Predict(x))
	}
	return out, nil
}

// ArmModel returns a snapshot of arm's learned linear model.
func (l *Linear) ArmModel(arm int) (regress.Model, error) {
	if err := l.checkArm(arm); err != nil {
		return regress.Model{}, err
	}
	return l.arms.At(arm).Model(), nil
}

// checkArm reports ErrArm for an out-of-range arm.
func (l *Linear) checkArm(arm int) error {
	if arm < 0 || arm >= l.arms.Len() {
		return ErrArm
	}
	return nil
}

// Update implements Policy.
func (l *Linear) Update(arm int, x []float64, runtime float64) error {
	if err := l.checkArm(arm); err != nil {
		return err
	}
	if len(x) != l.dim {
		return ErrDim
	}
	return l.arms.Update(arm, x, runtime)
}

// SetAdaptation configures non-stationary learning: exponential
// forgetting (forget in (0, 1); 1 = none) or a per-arm sliding window of
// the last `window` observations (0 = none). It recreates the per-arm
// estimators, so it must be called before the policy absorbs any
// observation.
func (l *Linear) SetAdaptation(forget float64, window int) error {
	for i, a := range l.arms.Estimators() {
		if a.N() > 0 {
			return fmt.Errorf("policy: arm %d already trained; set adaptation before updates", i)
		}
	}
	arms, err := regress.NewArms(l.arms.Len(), l.dim, 0, forget, window)
	if err != nil {
		return err
	}
	l.arms = arms
	return nil
}

// ResetArm drops one arm's learned model (and window buffer), restoring
// it to the constructed prior while leaving the other arms untouched —
// the serving layer's response to an online drift detection on that arm.
func (l *Linear) ResetArm(arm int) error {
	if err := l.checkArm(arm); err != nil {
		return err
	}
	l.arms.Reset(arm)
	return nil
}

// Delta hooks for replicated serving: ArmSufficient and ArmPrior feed
// delta extraction (current statistics, and the prior as the base after
// an arm reset), and MergeArmDelta folds a peer's delta in. All three
// fail with regress.ErrNotMergeable when the policy forgets or windows.

// ArmSufficient returns arm's current sufficient statistics.
func (l *Linear) ArmSufficient(arm int) (regress.Sufficient, error) {
	if err := l.checkArm(arm); err != nil {
		return regress.Sufficient{}, err
	}
	return l.arms.Sufficient(arm)
}

// ArmPrior returns the sufficient statistics of arm's untrained prior.
func (l *Linear) ArmPrior(arm int) (regress.Sufficient, error) {
	if err := l.checkArm(arm); err != nil {
		return regress.Sufficient{}, err
	}
	return l.arms.Prior(arm)
}

// MergeArmDelta folds a peer's additive delta into arm's model.
func (l *Linear) MergeArmDelta(arm int, delta regress.Sufficient) error {
	if err := l.checkArm(arm); err != nil {
		return err
	}
	return l.arms.Merge(arm, delta)
}

package policy

import (
	"errors"
	"fmt"
	"math"

	"banditware/internal/regress"
	"banditware/internal/rng"
	"banditware/internal/stats"
)

// linArms is the per-arm linear-model state the Linear policies share,
// with optional exponential forgetting or a sliding window over the
// last `window` observations per arm (see Linear.SetAdaptation).
type linArms struct {
	dim    int
	lambda float64
	forget float64 // (0, 1]; 1 = none
	window int     // 0 = none
	arms   []*regress.RLS
	// wxs/wys are the per-arm window buffers (window > 0 only).
	wxs [][][]float64
	wys [][]float64
}

func newLinArms(numArms, dim int, lambda float64) (linArms, error) {
	if numArms < 1 {
		return linArms{}, errors.New("policy: need at least one arm")
	}
	if dim < 0 {
		return linArms{}, fmt.Errorf("policy: negative dimension %d", dim)
	}
	la := linArms{dim: dim, lambda: lambda, forget: 1, arms: make([]*regress.RLS, numArms)}
	for i := range la.arms {
		rls, err := la.fresh()
		if err != nil {
			return linArms{}, err
		}
		la.arms[i] = rls
	}
	return la, nil
}

// fresh returns an untrained estimator honouring the configured
// forgetting factor.
func (la *linArms) fresh() (*regress.RLS, error) {
	return regress.NewRLSForgetting(la.dim, la.lambda, la.forget)
}

func (la *linArms) checkArm(arm int) error {
	if arm < 0 || arm >= len(la.arms) {
		return ErrArm
	}
	return nil
}

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
	linArms
	kind  string  // the selection rule: one of the five types above
	param float64 // ε, β, posterior scale v or temperature τ; 0 for greedy
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
	la, err := newLinArms(numArms, dim, 0)
	if err != nil {
		return nil, err
	}
	l := &Linear{linArms: la, kind: kind, param: param}
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
			return l.rnd.Intn(len(l.arms)), preds, nil
		}
	case TypeLinUCB:
		scores := l.scores[:0]
		for i, a := range l.arms {
			scores = append(scores, preds[i]-l.param*math.Sqrt(a.Uncertainty(x)))
		}
		l.scores = scores
		return stats.ArgMin(scores), preds, nil
	case TypeLinTS:
		scores := l.scores[:0]
		for _, a := range l.arms {
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
	for _, a := range l.arms {
		out = append(out, a.Predict(x))
	}
	return out, nil
}

// ArmModel returns a snapshot of arm's learned linear model.
func (l *Linear) ArmModel(arm int) (regress.Model, error) {
	if err := l.checkArm(arm); err != nil {
		return regress.Model{}, err
	}
	return l.arms[arm].Model(), nil
}

// Update implements Policy. A windowed policy appends to the arm's
// window buffer (evicting past the window) and rebuilds its estimator
// from the retained observations; AppendWindow validates before
// buffering, so a rejected value never poisons the window.
func (l *Linear) Update(arm int, x []float64, runtime float64) error {
	if err := l.checkArm(arm); err != nil {
		return err
	}
	if len(x) != l.dim {
		return ErrDim
	}
	if l.window == 0 {
		return l.arms[arm].Update(x, runtime)
	}
	var err error
	l.wxs[arm], l.wys[arm], err = regress.AppendWindow(l.wxs[arm], l.wys[arm], x, runtime, l.window)
	if err != nil {
		return err
	}
	fresh, err := regress.RefitWindow(l.dim, l.lambda, l.wxs[arm], l.wys[arm])
	if err != nil {
		return err
	}
	l.arms[arm] = fresh
	return nil
}

// SetAdaptation configures non-stationary learning: exponential
// forgetting (forget in (0, 1); 1 = none) or a per-arm sliding window of
// the last `window` observations (0 = none). It recreates the per-arm
// estimators, so it must be called before the policy absorbs any
// observation.
func (l *Linear) SetAdaptation(forget float64, window int) error {
	if forget <= 0 || forget > 1 {
		return fmt.Errorf("policy: forgetting factor %v outside (0, 1]", forget)
	}
	if window < 0 {
		return fmt.Errorf("policy: negative window %d", window)
	}
	if forget < 1 && window > 0 {
		return errors.New("policy: forgetting and windowing are mutually exclusive")
	}
	for i, a := range l.arms {
		if a.N() > 0 {
			return fmt.Errorf("policy: arm %d already trained; set adaptation before updates", i)
		}
	}
	l.forget = forget
	l.window = window
	l.wxs, l.wys = nil, nil
	if window > 0 {
		l.wxs = make([][][]float64, len(l.arms))
		l.wys = make([][]float64, len(l.arms))
	}
	for i := range l.arms {
		rls, err := l.fresh()
		if err != nil {
			return err
		}
		l.arms[i] = rls
	}
	return nil
}

// ResetArm drops one arm's learned model (and window buffer), restoring
// it to the constructed prior while leaving the other arms untouched —
// the serving layer's response to an online drift detection on that arm.
func (l *Linear) ResetArm(arm int) error {
	if err := l.checkArm(arm); err != nil {
		return err
	}
	rls, err := l.fresh()
	if err != nil {
		return err
	}
	l.arms[arm] = rls
	if l.window > 0 {
		l.wxs[arm], l.wys[arm] = nil, nil
	}
	return nil
}

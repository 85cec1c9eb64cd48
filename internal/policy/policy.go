// Package policy provides contextual-bandit policies beyond the paper's
// Algorithm 1, covering the comparison axis the paper lists as future work
// ("different and more complex contextual bandit algorithms"): LinUCB,
// linear Thompson sampling, fixed ε-greedy, softmax/Boltzmann, a uniform
// random baseline, and a ground-truth oracle. All policies minimise
// runtime and share one interface so the experiment harness can sweep them.
// The five model-based policies are one type, Linear, parameterised by
// its selection rule.
package policy

import (
	"errors"

	"banditware/internal/core"
	"banditware/internal/hardware"
	"banditware/internal/rng"
	"banditware/internal/stats"
)

// Errors shared by policies. They are core's sentinels, so callers see
// one error vocabulary whether a stream runs Algorithm 1 or a policy.
var (
	ErrDim = core.ErrDim
	ErrArm = core.ErrArm
)

// Policy selects a hardware arm for a workflow context and learns from the
// observed runtime. Implementations are not safe for concurrent use.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Select returns the arm to run the workflow with features x on.
	Select(x []float64) (int, error)
	// Update records the observed runtime of the workflow on arm.
	Update(arm int, x []float64, runtime float64) error
}

// Exploiter is an optional Policy extension: Exploit returns the arm the
// policy's current model considers best, without consuming exploration
// randomness. Evaluation harnesses prefer it over Select when measuring
// learned-model accuracy (otherwise residual exploration depresses the
// score of exploring policies).
type Exploiter interface {
	Exploit(x []float64) (int, error)
}

// DecayingEpsilonGreedy adapts the paper's core.Bandit to the Policy
// interface so Algorithm 1 participates in policy sweeps.
type DecayingEpsilonGreedy struct {
	B *core.Bandit
}

// NewDecayingEpsilonGreedy wraps a new Algorithm 1 bandit.
func NewDecayingEpsilonGreedy(hw hardware.Set, dim int, opts core.Options) (*DecayingEpsilonGreedy, error) {
	b, err := core.New(hw, dim, opts)
	if err != nil {
		return nil, err
	}
	return &DecayingEpsilonGreedy{B: b}, nil
}

// Name implements Policy.
func (p *DecayingEpsilonGreedy) Name() string { return "decaying-eps-greedy" }

// Select implements Policy.
func (p *DecayingEpsilonGreedy) Select(x []float64) (int, error) {
	d, err := p.B.Recommend(x)
	return d.Arm, err
}

// Exploit implements Exploiter via the bandit's tolerant selection.
func (p *DecayingEpsilonGreedy) Exploit(x []float64) (int, error) { return p.B.Exploit(x) }

// Update implements Policy.
func (p *DecayingEpsilonGreedy) Update(arm int, x []float64, runtime float64) error {
	return p.B.Observe(arm, x, runtime)
}

// Random selects uniformly at random — the paper's "random guess" floor
// (accuracy 1/3 for BP3D, 1/5 for matmul).
type Random struct {
	n    int
	dim  int
	seed uint64
	rnd  *rng.Source
}

// NewRandom constructs the policy.
func NewRandom(numArms, dim int, seed uint64) (*Random, error) {
	if numArms < 1 {
		return nil, errors.New("policy: need at least one arm")
	}
	return &Random{n: numArms, dim: dim, seed: seed, rnd: rng.New(seed)}, nil
}

// Name implements Policy.
func (p *Random) Name() string { return "random" }

// Select implements Policy.
func (p *Random) Select(x []float64) (int, error) {
	if len(x) != p.dim {
		return 0, ErrDim
	}
	return p.rnd.Intn(p.n), nil
}

// Update implements Policy.
func (p *Random) Update(arm int, x []float64, runtime float64) error {
	if arm < 0 || arm >= p.n {
		return ErrArm
	}
	if len(x) != p.dim {
		return ErrDim
	}
	return nil
}

// Oracle knows the true expected runtime per arm and always selects the
// optimum — the regret-zero reference in policy sweeps.
type Oracle struct {
	dim   int
	n     int
	truth func(arm int, x []float64) float64
}

// NewOracle constructs the oracle from the ground-truth expected-runtime
// function.
func NewOracle(numArms, dim int, truth func(arm int, x []float64) float64) (*Oracle, error) {
	if numArms < 1 || truth == nil {
		return nil, errors.New("policy: oracle needs arms and a truth function")
	}
	return &Oracle{dim: dim, n: numArms, truth: truth}, nil
}

// Name implements Policy.
func (p *Oracle) Name() string { return "oracle" }

// Select implements Policy.
func (p *Oracle) Select(x []float64) (int, error) {
	if len(x) != p.dim {
		return 0, ErrDim
	}
	scores := make([]float64, p.n)
	for i := range scores {
		scores[i] = p.truth(i, x)
	}
	return stats.ArgMin(scores), nil
}

// Update implements Policy (the oracle learns nothing).
func (p *Oracle) Update(arm int, x []float64, runtime float64) error {
	if arm < 0 || arm >= p.n {
		return ErrArm
	}
	return nil
}

package policy

import (
	"errors"
	"fmt"

	"banditware/internal/regress"
)

// Canonical policy type identifiers, used in State.Type and by the
// serving layer's policy dispatch. They name the algorithm family, not
// the parameterisation (Name() carries the parameters).
const (
	TypeDecayingEpsGreedy = "decaying-eps-greedy"
	TypeEpsGreedy         = "eps-greedy"
	TypeGreedy            = "greedy"
	TypeRandom            = "random"
	TypeLinUCB            = "linucb"
	TypeLinTS             = "lints"
	TypeSoftmax           = "softmax"
)

// Snapshot/restore errors.
var (
	// ErrNoSnapshot is returned by policies whose state cannot be
	// serialised (the Oracle holds an arbitrary truth function).
	ErrNoSnapshot = errors.New("policy: policy cannot be snapshotted")
	// ErrUnknownType is returned by Restore for a State.Type it does not
	// recognise.
	ErrUnknownType = errors.New("policy: unknown policy type")
)

// State is the serialisable learned state of a Policy: the type tag, the
// construction parameters, and the per-arm estimators. It is the unit the
// serving layer embeds in versioned service snapshots, so a stream backed
// by any policy survives save/load with its learned models intact.
//
// Exploration RNG position is not captured: a restored policy draws a
// fresh stream from the recorded Seed, preserving the distribution of
// behaviour but not the exact draw sequence (the same contract as
// core.Bandit.SaveState).
//
// Until marshalled, Arms shares the live estimators of the policy that
// produced it — snapshot and serialise under the same lock.
type State struct {
	// Type is one of the Type* constants.
	Type string `json:"type"`
	// NumArms and Dim fix the policy's shape.
	NumArms int `json:"num_arms"`
	Dim     int `json:"dim"`
	// Seed reseeds the exploration RNG on restore (policies without
	// randomness ignore it).
	Seed uint64 `json:"seed,omitempty"`
	// Per-type parameters.
	Epsilon float64 `json:"epsilon,omitempty"` // eps-greedy
	Beta    float64 `json:"beta,omitempty"`    // linucb
	Scale   float64 `json:"scale,omitempty"`   // lints posterior scale
	Temp    float64 `json:"temp,omitempty"`    // softmax temperature
	// Adaptation (Linear policies; see Linear.SetAdaptation). Forget is the
	// exponential forgetting factor (omitted when 1 — no forgetting);
	// Window is the sliding-window length with WindowXs/WindowYs the
	// live per-arm buffers (omitted when 0). States written before
	// adaptation existed carry none of these and restore unchanged.
	Forget   float64       `json:"forget,omitempty"`
	Window   int           `json:"window,omitempty"`
	WindowXs [][][]float64 `json:"window_xs,omitempty"`
	WindowYs [][]float64   `json:"window_ys,omitempty"`
	// Arms holds the per-arm least-squares estimators of linear-model
	// policies.
	Arms []*regress.RLS `json:"arms,omitempty"`
}

// param points at the State field that carries a Linear rule's
// parameter, or is nil for greedy (and the model-free types), which
// have none.
func (st *State) param() *float64 {
	switch st.Type {
	case TypeEpsGreedy:
		return &st.Epsilon
	case TypeLinUCB:
		return &st.Beta
	case TypeLinTS:
		return &st.Scale
	case TypeSoftmax:
		return &st.Temp
	}
	return nil
}

// Snapshotter is implemented by every policy whose learned state can be
// serialised and later restored with Restore.
type Snapshotter interface {
	Snapshot() (State, error)
}

// adaptState records the linArms adaptation configuration (and live
// window buffers) in st. Non-adaptive policies record nothing, so their
// states are byte-identical to the pre-adaptation format.
func (la *linArms) adaptState(st *State) {
	if la.forget < 1 {
		st.Forget = la.forget
	}
	if la.window > 0 {
		st.Window = la.window
		st.WindowXs = la.wxs
		st.WindowYs = la.wys
	}
}

// checkArms validates restored per-arm estimators against the state's
// declared shape. Restore runs it before building a policy of that
// shape: the estimators were sized by their own payload, the declared
// arm count and dimension by nothing.
func checkArms(arms []*regress.RLS, numArms, dim int) error {
	if len(arms) != numArms {
		return fmt.Errorf("policy: state has %d arms, want %d", len(arms), numArms)
	}
	for i, a := range arms {
		if a == nil {
			return fmt.Errorf("policy: state arm %d missing estimator", i)
		}
		if a.Dim() != dim {
			return fmt.Errorf("%w: state arm %d has dim %d, want %d", ErrDim, i, a.Dim(), dim)
		}
	}
	return nil
}

// restoreAdapt applies a snapshotted adaptation configuration,
// validating the window buffers against the policy's shape. The
// per-arm estimators (already restored) carry their own forgetting.
func (la *linArms) restoreAdapt(st State) error {
	forget := st.Forget
	if forget == 0 {
		forget = 1 // states written before adaptation existed
	}
	if forget < 0 || forget > 1 {
		return fmt.Errorf("policy: corrupt state: forgetting factor %v", forget)
	}
	if st.Window < 0 {
		return fmt.Errorf("policy: corrupt state: negative window %d", st.Window)
	}
	if forget < 1 && st.Window > 0 {
		return errors.New("policy: corrupt state: both forgetting and window set")
	}
	la.forget = forget
	la.window = st.Window
	if st.Window == 0 {
		return nil
	}
	if len(st.WindowXs) != len(la.arms) || len(st.WindowYs) != len(la.arms) {
		return fmt.Errorf("policy: corrupt state: %d/%d window buffers for %d arms",
			len(st.WindowXs), len(st.WindowYs), len(la.arms))
	}
	for i := range st.WindowXs {
		if len(st.WindowXs[i]) != len(st.WindowYs[i]) || len(st.WindowYs[i]) > st.Window {
			return fmt.Errorf("policy: corrupt state: arm %d window holds %d/%d values (cap %d)",
				i, len(st.WindowXs[i]), len(st.WindowYs[i]), st.Window)
		}
		for _, x := range st.WindowXs[i] {
			if len(x) != la.dim {
				return fmt.Errorf("%w: arm %d window features have dim %d, want %d",
					ErrDim, i, len(x), la.dim)
			}
		}
	}
	la.wxs, la.wys = st.WindowXs, st.WindowYs
	return nil
}

// Snapshot implements Snapshotter. Only the rules that draw randomness
// record their seed.
func (l *Linear) Snapshot() (State, error) {
	st := State{
		Type:    l.kind,
		NumArms: len(l.arms),
		Dim:     l.dim,
		Arms:    l.arms,
	}
	if l.rnd != nil {
		st.Seed = l.seed
	}
	if f := st.param(); f != nil {
		*f = l.param
	}
	l.adaptState(&st)
	return st, nil
}

// Snapshot implements Snapshotter.
func (p *Random) Snapshot() (State, error) {
	return State{Type: TypeRandom, NumArms: p.n, Dim: p.dim, Seed: p.seed}, nil
}

// Snapshot implements Snapshotter by refusing: the oracle's ground-truth
// function cannot be serialised.
func (p *Oracle) Snapshot() (State, error) {
	return State{}, fmt.Errorf("%w: oracle", ErrNoSnapshot)
}

// Restore reconstructs a policy from a State produced by Snapshot,
// dispatching on State.Type. The restored policy's learned estimators
// are exactly the serialised ones; its exploration RNG restarts from
// State.Seed.
func Restore(st State) (Policy, error) {
	if st.Type == TypeRandom {
		return NewRandom(st.NumArms, st.Dim, st.Seed)
	}
	var param float64
	if f := st.param(); f != nil {
		param = *f
	}
	if err := checkArms(st.Arms, st.NumArms, st.Dim); err != nil {
		return nil, err
	}
	l, err := newLinear(st.Type, st.NumArms, st.Dim, param, st.Seed)
	if err != nil {
		return nil, err
	}
	l.arms = st.Arms
	if err := l.restoreAdapt(st); err != nil {
		return nil, err
	}
	return l, nil
}

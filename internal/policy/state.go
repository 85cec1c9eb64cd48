package policy

import (
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

// State is the serialisable learned state of a Policy: the type tag, the
// construction parameters, and the per-arm estimators. It is the unit the
// serving layer embeds in versioned service snapshots, so a stream backed
// by any policy survives save/load with its learned models intact. The
// caller builds the policy State describes, the way it built the
// original, and Load adopts the learned state into it.
//
// Exploration RNG position is not captured: a loaded policy draws a
// fresh stream from its Seed, preserving the distribution of behaviour
// but not the exact draw sequence (the same contract as
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
	// Seed is the exploration RNG's seed (policies without randomness
	// record none).
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
	// adaptation existed carry none of these and load unchanged.
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

// header is the part of a State its policy's construction fixes:
// type, shape, seed, the rule's parameter and the adaptation mode.
type header struct {
	Type                       string
	NumArms, Dim               int
	Seed                       uint64
	Epsilon, Beta, Scale, Temp float64
	Forget                     float64
	Window                     int
}

func (st *State) header() header {
	return header{st.Type, st.NumArms, st.Dim, st.Seed, st.Epsilon, st.Beta, st.Scale, st.Temp, st.Forget, st.Window}
}

// checkHeader refuses a state that describes another policy than own.
func checkHeader(st, own State) error {
	if got, want := st.header(), own.header(); got != want {
		return fmt.Errorf("policy: corrupt state: %+v contradicts the policy %+v", got, want)
	}
	return nil
}

// Snapshot returns the policy's learned state. Only the rules that draw
// randomness record their seed.
func (l *Linear) Snapshot() State {
	st := State{
		Type:    l.kind,
		NumArms: l.arms.Len(),
		Dim:     l.dim,
		Arms:    l.arms.Estimators(),
	}
	if l.rnd != nil {
		st.Seed = l.seed
	}
	if f := st.param(); f != nil {
		*f = l.param
	}
	// Non-adaptive policies record no adaptation, so their states are
	// byte-identical to the pre-adaptation format.
	forget, window, xs, ys := l.arms.Adaptation()
	if forget < 1 {
		st.Forget = forget
	}
	if window > 0 {
		st.Window, st.WindowXs, st.WindowYs = window, xs, ys
	}
	return st
}

// Load adopts the per-arm estimators and window buffers of st, a state
// Snapshot wrote for a policy built as this one was: same rule,
// parameter, seed, shape and adaptation. Anything else is refused and
// leaves the policy unchanged.
func (l *Linear) Load(st State) error {
	if err := checkHeader(st, l.Snapshot()); err != nil {
		return err
	}
	if err := l.arms.Restore(st.Arms, st.WindowXs, st.WindowYs); err != nil {
		return fmt.Errorf("policy: corrupt state: %w", err)
	}
	return nil
}

// Snapshot returns the policy's state: its header alone.
func (p *Random) Snapshot() State {
	return State{Type: TypeRandom, NumArms: p.n, Dim: p.dim, Seed: p.seed}
}

// Load checks that st describes this policy; Random learns nothing, so
// there is nothing else to adopt.
func (p *Random) Load(st State) error { return checkHeader(st, p.Snapshot()) }

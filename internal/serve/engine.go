package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"banditware/internal/core"
	"banditware/internal/hardware"
	"banditware/internal/policy"
	"banditware/internal/regress"
)

// Engine abstracts the decision core a stream serves from: anything that
// can pick an arm for a context, learn from an observed runtime, and
// serialise its learned state. The paper's Algorithm 1 bandit and every
// internal/policy.Policy adapt to it, so streams are policy-agnostic.
//
// Engines are "concurrency-ready", not concurrency-safe: implementations
// need no internal locking because the owning stream serialises every
// call under its mutex.
type Engine interface {
	// Kind returns the canonical policy type (one of the Policy*
	// constants), recorded in snapshots and surfaced in StreamInfo.
	Kind() string
	// Hardware returns the arm set (shared; do not mutate).
	Hardware() hardware.Set
	// Dim returns the feature dimension.
	Dim() int
	// RecommendInto picks an arm for features x, writing the decision
	// into d and reusing d.Predicted's backing array for the per-arm
	// estimates (left empty by model-free policies). Explored and
	// Epsilon stay zero for policies that do not report them.
	RecommendInto(x []float64, d *core.Decision) error
	// Observe trains on one (arm, features, runtime) triple.
	Observe(arm int, x []float64, runtime float64) error
	// Exploit returns the arm the current model considers best without
	// consuming exploration randomness where the policy supports that
	// (policies without a separate exploit mode fall back to Select).
	Exploit(x []float64) (int, error)
	// PredictAllInto appends per-arm runtime estimates to out, or
	// reports ErrUnsupported for model-free policies.
	PredictAllInto(x, out []float64) ([]float64, error)
	// Epsilon reports the current exploration probability; engines
	// without a decaying ε report 0.
	Epsilon() float64
	// Round reports how many observations the engine has absorbed.
	Round() int
	// SaveState serialises the engine's full learned state as JSON.
	SaveState(w io.Writer) error
	// Model returns one arm's learned linear model for the
	// stream-inspection endpoint, or ErrUnsupported for model-free
	// policies.
	Model(arm int) (regress.Model, error)
	// ResetArm drops one arm's learned model, restoring it to the
	// constructed prior while leaving the other arms, the round counter
	// and ε untouched — the on-drift "reset" response. Model-free
	// policies report ErrUnsupported.
	ResetArm(arm int) error
	// AddArm appends one untrained arm for a new hardware configuration
	// and RemoveArm retires arm i, shifting later indices down by one —
	// arm-set elasticity.
	AddArm(cfg hardware.Config) error
	RemoveArm(arm int) error
	// ArmLearned returns one arm's information-form statistics less its
	// untrained prior, MergeArmDelta folds a peer's additive delta into
	// the arm, and AbsorbRounds adds k rounds merged from peers — the
	// delta-replication hooks. A configuration whose state is not
	// additive (window, forgetting, batch refit) answers
	// regress.ErrNotMergeable; model-free policies answer ErrUnsupported
	// for the two arm hooks.
	ArmLearned(arm int) (regress.Sufficient, error)
	MergeArmDelta(arm int, delta regress.Sufficient) error
	AbsorbRounds(k int) error
}

// CIProvider is an optional Engine extension exposing per-arm prediction
// intervals. Only the Algorithm 1 engine implements it.
type CIProvider interface {
	PredictWithCI(x []float64, z float64) ([]core.Interval, error)
}

// Engine/policy errors.
var (
	// ErrUnknownPolicy reports a PolicySpec.Type no engine adapter
	// recognises.
	ErrUnknownPolicy = errors.New("serve: unknown policy type")
	// ErrUnsupported reports an operation the stream's policy cannot
	// perform (e.g. prediction intervals on a LinUCB stream).
	ErrUnsupported = errors.New("serve: operation not supported by the stream's policy")
)

// Canonical policy type identifiers accepted in PolicySpec.Type and
// reported by Engine.Kind. PolicyAlgorithm1 is the paper's decaying
// contextual ε-greedy bandit; the rest are the internal/policy
// alternatives.
const (
	PolicyAlgorithm1 = "algorithm1"
	PolicyLinUCB     = policy.TypeLinUCB
	PolicyLinTS      = policy.TypeLinTS
	PolicyEpsGreedy  = policy.TypeEpsGreedy
	PolicyGreedy     = policy.TypeGreedy
	PolicySoftmax    = policy.TypeSoftmax
	PolicyRandom     = policy.TypeRandom
)

// PolicySpec selects and parameterises a stream's (or shadow's) decision
// policy. The zero value selects Algorithm 1 with the stream's Options.
// Parameter fields apply only to the policy type that uses them; a zero
// parameter selects that policy's default. In JSON the spec may be
// either a bare string ("linucb") or an object
// ({"type": "linucb", "beta": 2}).
type PolicySpec struct {
	// Type is one of the Policy* constants (a few aliases are accepted:
	// "", "alg1" and "decaying-eps-greedy" mean algorithm1, "thompson"
	// means lints, "epsilon-greedy" means eps-greedy, "boltzmann" means
	// softmax).
	Type string `json:"type,omitempty"`
	// Beta scales LinUCB's confidence width (default 1).
	Beta float64 `json:"beta,omitempty"`
	// PosteriorScale scales linear Thompson sampling's posterior
	// (default 1).
	PosteriorScale float64 `json:"posterior_scale,omitempty"`
	// Epsilon is the fixed exploration probability of eps-greedy
	// (default 0.1; use type "greedy" for ε = 0).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Temperature is the softmax temperature (default 1).
	Temperature float64 `json:"temperature,omitempty"`
	// Seed drives the policy's exploration randomness. For Algorithm 1
	// it overrides Options.Seed when non-zero.
	Seed uint64 `json:"seed,omitempty"`
}

// UnmarshalJSON accepts either a bare policy-type string or the full
// object form, and rejects unknown object fields.
func (p *PolicySpec) UnmarshalJSON(data []byte) error {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) > 0 && trimmed[0] == '"' {
		var s string
		if err := json.Unmarshal(trimmed, &s); err != nil {
			return err
		}
		*p = PolicySpec{Type: s}
		return nil
	}
	type plain PolicySpec // drops the custom unmarshaller
	var obj plain
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&obj); err != nil {
		return err
	}
	*p = PolicySpec(obj)
	return nil
}

// kind canonicalises Type, resolving aliases.
func (p PolicySpec) kind() (string, error) {
	switch strings.ToLower(strings.TrimSpace(p.Type)) {
	case "", PolicyAlgorithm1, "alg1", policy.TypeDecayingEpsGreedy:
		return PolicyAlgorithm1, nil
	case PolicyLinUCB:
		return PolicyLinUCB, nil
	case PolicyLinTS, "thompson":
		return PolicyLinTS, nil
	case PolicyEpsGreedy, "epsilon-greedy":
		return PolicyEpsGreedy, nil
	case PolicyGreedy:
		return PolicyGreedy, nil
	case PolicySoftmax, "boltzmann":
		return PolicySoftmax, nil
	case PolicyRandom:
		return PolicyRandom, nil
	}
	return "", fmt.Errorf("%w: %q", ErrUnknownPolicy, p.Type)
}

// defaulted returns v, or def when v is zero.
func defaulted(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// maxDim bounds a stream's feature dimension. Engine state grows with
// it — a linear model keeps a (dim+1)² factor per arm, a raw-dimension
// stream one schema field per dimension — so a dimension from outside
// (a create request, a snapshot) is checked before anything is built
// for it. The paper's workloads use a handful of features.
const maxDim = 1024

// maxModelCells bounds a stream's model state: arms × (dim+1)², the
// entries of the (dim+1)² factor a linear model keeps per arm, for the
// stream's engine and again for each of its shadows, which have the
// same shape. 1<<22 entries is 32 MiB of factors — three arms at
// maxDim, 256 at dim 127, or half of either with one shadow. A stream's
// arm and shadow counts come from outside (a create request's hardware
// and shadow lists, one AddArm or shadow attach per request), so the
// shape is checked before anything is built for it. A snapshot is not
// checked: its policies are already sized by its own payload, and a
// stream saved before the bound existed must still load.
const maxModelCells = 1 << 22

// checkShape is checkStreamShape for one engine alone.
func checkShape(arms, dim int) error { return checkStreamShape(arms, 0, dim) }

// checkStreamShape rejects a feature dimension over maxDim and a stream
// of arms arms and shadows shadows whose model state would exceed
// maxModelCells: arms × (1 + shadows) × (dim+1)².
func checkStreamShape(arms, shadows, dim int) error {
	if dim > maxDim {
		return fmt.Errorf("serve: feature dimension %d exceeds the maximum %d", dim, maxDim)
	}
	if cells := (dim + 1) * (dim + 1) * (1 + shadows); dim >= 0 && arms > maxModelCells/cells {
		return fmt.Errorf("serve: %d arms with %d shadows at feature dimension %d exceed the model-state bound: arms × (1 + shadows) × (dim+1)² must not exceed %d",
			arms, shadows, dim, maxModelCells)
	}
	return nil
}

// buildEngine builds the engine a stream (or shadow) serves from. opts
// parameterises Algorithm 1 and is ignored by the other policies, which
// take their parameters from spec. adapt (already canonical — see
// compileAdapt) configures model forgetting or windowing, which every
// linear engine hands to its regress.Arms (Algorithm 1 through its
// Options, the other linear policies through policy.Linear.
// SetAdaptation); policies without models (random) reject any mode but
// "none". Callers check the shape first (see maxModelCells).
func buildEngine(hw hardware.Set, dim int, opts core.Options, spec PolicySpec, adapt AdaptSpec) (Engine, error) {
	kind, err := spec.kind()
	if err != nil {
		return nil, err
	}
	if kind == PolicyAlgorithm1 {
		if spec.Seed != 0 {
			opts.Seed = spec.Seed
		}
		switch adapt.Mode {
		case AdaptForgetting:
			opts.ForgettingFactor = adapt.Factor
		case AdaptWindow:
			opts.WindowSize = adapt.Window
		}
		b, err := core.New(hw, dim, opts)
		if err != nil {
			return nil, err
		}
		return banditEngine{b}, nil
	}
	// core.New validated these for Algorithm 1; the policy constructors
	// never see the hardware set, so validate here.
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	if dim < 0 {
		return nil, fmt.Errorf("serve: negative feature dimension %d", dim)
	}
	n := len(hw)
	e := &policyEngine{spec: PolicySpec{Type: kind, Seed: spec.Seed}, hw: hw, dim: dim}
	switch kind {
	case PolicyLinUCB:
		e.spec.Beta = defaulted(spec.Beta, 1)
		e.lin, err = policy.NewLinUCB(n, dim, e.spec.Beta)
	case PolicyLinTS:
		e.spec.PosteriorScale = defaulted(spec.PosteriorScale, 1)
		e.lin, err = policy.NewLinTS(n, dim, e.spec.PosteriorScale, spec.Seed)
	case PolicyEpsGreedy:
		e.spec.Epsilon = defaulted(spec.Epsilon, 0.1)
		e.lin, err = policy.NewFixedEpsilonGreedy(n, dim, e.spec.Epsilon, spec.Seed)
	case PolicyGreedy:
		e.lin, err = policy.NewGreedy(n, dim)
	case PolicySoftmax:
		e.spec.Temperature = defaulted(spec.Temperature, 1)
		e.lin, err = policy.NewSoftmax(n, dim, e.spec.Temperature, spec.Seed)
	case PolicyRandom:
		e.p, err = policy.NewRandom(n, dim, spec.Seed)
	}
	if err != nil {
		return nil, err
	}
	if e.lin != nil {
		e.p = e.lin
	}
	if adapt.Mode != AdaptNone {
		if e.lin == nil {
			return nil, fmt.Errorf("%w: policy %s has no models to adapt", ErrBadAdapt, kind)
		}
		forget, window := 1.0, 0
		if adapt.Mode == AdaptForgetting {
			forget = adapt.Factor
		} else {
			window = adapt.Window
		}
		if err := e.lin.SetAdaptation(forget, window); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadAdapt, err)
		}
	}
	if adapt.OnDrift == DriftReset && e.lin == nil {
		return nil, fmt.Errorf("%w: policy %s cannot reset arms (on_drift %q)",
			ErrBadAdapt, kind, DriftReset)
	}
	return e, nil
}

// --- Algorithm 1 adapter ---------------------------------------------

// banditEngine adapts the paper's core.Bandit to Engine. All methods but
// Kind and AddArm come from the embedded bandit, including CIProvider.
type banditEngine struct {
	*core.Bandit
}

// Kind implements Engine.
func (banditEngine) Kind() string { return PolicyAlgorithm1 }

// --- internal/policy adapter -----------------------------------------

// servedPolicy is what a stream needs of a policy: selection, learning,
// snapshots and arm-set edits. *policy.Linear and *policy.Random
// provide it.
type servedPolicy interface {
	Select(x []float64) (int, error)
	Update(arm int, x []float64, runtime float64) error
	Snapshot() (policy.State, error)
	AddArm() error
	RemoveArm(arm int) error
}

// errModelFree is ErrUnsupported for the one policy without models
// (random), built once so the per-observe drift probe does not allocate.
var errModelFree = fmt.Errorf("%w (%s)", ErrUnsupported, PolicyRandom)

// policyEngine adapts an internal/policy policy to Engine, tracking the
// round count the Policy interface does not carry.
type policyEngine struct {
	spec PolicySpec // canonical type and effective parameters
	hw   hardware.Set
	dim  int
	p    servedPolicy
	// lin is p when the policy has per-arm models (every type but
	// random), nil otherwise.
	lin   *policy.Linear
	round int
}

// Kind implements Engine.
func (e *policyEngine) Kind() string { return e.spec.Type }

// Hardware implements Engine.
func (e *policyEngine) Hardware() hardware.Set { return e.hw }

// Dim implements Engine.
func (e *policyEngine) Dim() int { return e.dim }

// Epsilon implements Engine; fixed-parameter policies report 0.
func (e *policyEngine) Epsilon() float64 { return 0 }

// Round implements Engine.
func (e *policyEngine) Round() int { return e.round }

// RecommendInto implements Engine. One model pass yields both the arm
// and the mean per-arm estimates; Explored/Epsilon stay zero (the
// policies do not report their exploration branch).
func (e *policyEngine) RecommendInto(x []float64, d *core.Decision) error {
	var err error
	if e.lin != nil {
		d.Arm, d.Predicted, err = e.lin.SelectInto(x, d.Predicted[:0])
	} else {
		d.Arm, err = e.p.Select(x)
		d.Predicted = d.Predicted[:0]
	}
	d.Explored, d.Epsilon = false, 0
	return err
}

// Observe implements Engine.
func (e *policyEngine) Observe(arm int, x []float64, runtime float64) error {
	if math.IsNaN(runtime) || math.IsInf(runtime, 0) {
		return core.ErrBadValue
	}
	if err := e.p.Update(arm, x, runtime); err != nil {
		return err
	}
	e.round++
	return nil
}

// Exploit implements Engine: the minimum-prediction arm, or — for the
// model-free random policy — a fresh Select.
func (e *policyEngine) Exploit(x []float64) (int, error) {
	if e.lin == nil {
		return e.p.Select(x)
	}
	return e.lin.Exploit(x)
}

// PredictAllInto implements Engine.
func (e *policyEngine) PredictAllInto(x, out []float64) ([]float64, error) {
	if e.lin == nil {
		return nil, errModelFree
	}
	return e.lin.PredictAllInto(x, out)
}

// ResetArm implements Engine.
func (e *policyEngine) ResetArm(arm int) error {
	if e.lin == nil {
		return errModelFree
	}
	return e.lin.ResetArm(arm)
}

// Model implements Engine.
func (e *policyEngine) Model(arm int) (regress.Model, error) {
	if e.lin == nil {
		return regress.Model{}, errModelFree
	}
	return e.lin.ArmModel(arm)
}

// ArmLearned implements Engine.
func (e *policyEngine) ArmLearned(arm int) (regress.Sufficient, error) {
	if e.lin == nil {
		return regress.Sufficient{}, errModelFree
	}
	return e.lin.ArmLearned(arm)
}

// MergeArmDelta implements Engine.
func (e *policyEngine) MergeArmDelta(arm int, delta regress.Sufficient) error {
	if e.lin == nil {
		return errModelFree
	}
	return e.lin.MergeArmDelta(arm, delta)
}

// AbsorbRounds implements Engine: the policies keep no ε schedule, so
// merged rounds only advance the round counter.
func (e *policyEngine) AbsorbRounds(k int) error {
	if k < 0 {
		return fmt.Errorf("serve: negative round count %d", k)
	}
	if k > core.MaxRounds-e.round {
		return fmt.Errorf("serve: %d rounds would take the round counter past %d", k, core.MaxRounds)
	}
	e.round += k
	return nil
}

// policyEngineState is the JSON wire form of a policyEngine.
type policyEngineState struct {
	Spec     PolicySpec   `json:"spec"`
	Hardware hardware.Set `json:"hardware"`
	Dim      int          `json:"dim"`
	Round    int          `json:"round"`
	Policy   policy.State `json:"policy"`
}

// SaveState implements Engine: spec, hardware, round counter, and the
// policy's full learned state in one JSON document.
func (e *policyEngine) SaveState(w io.Writer) error {
	ps, err := e.p.Snapshot()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(policyEngineState{
		Spec:     e.spec,
		Hardware: e.hw,
		Dim:      e.dim,
		Round:    e.round,
		Policy:   ps,
	})
}

// restorePolicyEngine rebuilds a policyEngine serialised by SaveState.
func restorePolicyEngine(data []byte) (*policyEngine, error) {
	var st policyEngineState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("serve: decoding policy engine state: %w", err)
	}
	if st.Round < 0 || st.Round > core.MaxLoadedRound {
		return nil, fmt.Errorf("serve: corrupt engine state: round %d outside [0, %d]", st.Round, core.MaxLoadedRound)
	}
	// Restore the policy first: its estimators are sized by their own
	// payload, while the envelope only declares a shape, and nothing is
	// built for that shape until the two agree.
	p, err := policy.Restore(st.Policy)
	if err != nil {
		return nil, err
	}
	if st.Policy.NumArms != len(st.Hardware) || st.Policy.Dim != st.Dim {
		return nil, fmt.Errorf("serve: corrupt engine state: policy of %d arms × dim %d under an envelope of %d arms × dim %d",
			st.Policy.NumArms, st.Policy.Dim, len(st.Hardware), st.Dim)
	}
	// The envelope (spec, hardware, dim) must describe exactly the
	// policy it wraps: build the policy the envelope promises and compare
	// the headers, so a state that contradicts itself is rejected
	// instead of serving one policy under another's name or shape.
	// Zero arms: the dimension is bounded, the model state is not.
	if err := checkShape(0, st.Dim); err != nil {
		return nil, fmt.Errorf("serve: corrupt engine state: %w", err)
	}
	want, err := buildEngine(st.Hardware, st.Dim, core.Options{}, st.Spec, defaultAdapt())
	if err != nil {
		return nil, fmt.Errorf("serve: corrupt engine state: %w", err)
	}
	e, ok := want.(*policyEngine)
	if !ok || e.spec != st.Spec {
		return nil, fmt.Errorf("serve: corrupt engine state: non-canonical policy spec %+v", st.Spec)
	}
	wantState, err := e.p.Snapshot()
	if err != nil {
		return nil, err
	}
	if got, exp := headerOf(st.Policy), headerOf(wantState); got != exp {
		return nil, fmt.Errorf("serve: corrupt engine state: policy %+v contradicts its envelope %+v", got, exp)
	}
	sp, ok := p.(servedPolicy)
	if !ok {
		return nil, fmt.Errorf("serve: corrupt engine state: policy %s cannot serve", st.Policy.Type)
	}
	e.p, e.lin, e.round = sp, nil, st.Round
	if lin, ok := p.(*policy.Linear); ok {
		e.lin = lin
	}
	return e, nil
}

// policyHeader is the part of a policy.State its engine envelope fixes:
// type, shape, seed and the rule's parameter.
type policyHeader struct {
	Type                       string
	NumArms, Dim               int
	Seed                       uint64
	Epsilon, Beta, Scale, Temp float64
}

func headerOf(ps policy.State) policyHeader {
	return policyHeader{ps.Type, ps.NumArms, ps.Dim, ps.Seed, ps.Epsilon, ps.Beta, ps.Scale, ps.Temp}
}

// restoreEngine rebuilds an engine from its snapshotted kind and state.
// An empty kind means Algorithm 1 (the pre-policy snapshot formats).
func restoreEngine(kind string, data []byte) (Engine, error) {
	if kind == "" || kind == PolicyAlgorithm1 {
		b, err := core.LoadState(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return banditEngine{b}, nil
	}
	eng, err := restorePolicyEngine(data)
	if err != nil {
		return nil, err
	}
	if eng.Kind() != kind {
		return nil, fmt.Errorf("serve: engine state is %q, envelope says %q", eng.Kind(), kind)
	}
	return eng, nil
}

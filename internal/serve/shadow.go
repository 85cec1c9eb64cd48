package serve

import (
	"errors"
	"fmt"

	"banditware/internal/core"
)

// Shadow errors.
var (
	ErrShadowExists   = errors.New("serve: shadow already attached")
	ErrShadowNotFound = errors.New("serve: shadow not found")
)

// shadow is a never-serving policy attached to a stream for live A/B
// evaluation. It sees every context the primary sees (selecting its own
// arm, consuming its own randomness) and learns off-policy from every
// observation (the primary's arm and the measured runtime — the only
// counterfactual-free data available), but its selections never reach a
// client. The counters let an operator compare a candidate policy
// against the serving one on live traffic before switching.
type shadow struct {
	name   string
	engine Engine
	// dec is the shadow's reused decision buffer.
	dec core.Decision
	// rw is the shadow's own compiled reward: every observed Outcome is
	// replayed through it, so a shadow can evaluate a different reward
	// regime (not just a different policy) on live traffic. rwInherited
	// records that the shadow took the stream's reward at attach time
	// (such shadows omit the spec from snapshots and re-inherit on
	// load).
	rw          rewardState
	rwInherited bool

	// decisions counts contexts the shadow selected on; observations
	// counts runtimes it absorbed (decisions whose ticket was evicted or
	// expired are never observed).
	decisions    uint64
	observations uint64
	// agreements counts observations where the shadow had chosen the
	// same arm the primary ran; matchedRuntime sums the actual runtimes
	// of those rounds — the replay-style estimate of the shadow's
	// achieved runtime (Li et al.'s offline policy evaluation: rounds
	// where the logged action matches the evaluated policy's choice are
	// unbiased samples of its performance). matchedReward is the same
	// replay sum under the shadow's own reward.
	agreements     uint64
	matchedRuntime float64
	matchedReward  float64
	// rewardTotal sums the shadow's reward score of every observed round
	// (the arm actually run, the Outcome actually measured) — what the
	// serving traffic is worth under this shadow's reward definition.
	rewardTotal float64
	// estRegret accumulates, per observation, the primary model's
	// prediction for the shadow's arm minus that for the arm actually
	// run — a model-based cumulative-regret estimate of switching to
	// the shadow (negative = the shadow's choices look better). It is
	// denominated in the *primary stream's* learning signal: seconds
	// under the default runtime reward, reward units otherwise — never
	// in the shadow's own reward (contrast matchedReward).
	estRegret float64
}

// ShadowInfo is a point-in-time summary of one shadow's evaluation
// counters.
type ShadowInfo struct {
	Name   string `json:"name"`
	Policy string `json:"policy"`
	// Round is how many observations the shadow's own models absorbed.
	Round int `json:"round"`
	// Decisions and Observations count the contexts selected on and the
	// runtimes absorbed.
	Decisions    uint64 `json:"decisions"`
	Observations uint64 `json:"observations"`
	// Agreements counts observations where the shadow agreed with the
	// primary's arm; MatchedRuntimeTotal sums the measured runtimes of
	// those rounds (replay evaluation: divide by Agreements for the
	// shadow's estimated mean runtime). MatchedRewardTotal is the same
	// replay sum scored by the shadow's own reward.
	Agreements          uint64  `json:"agreements"`
	MatchedRuntimeTotal float64 `json:"matched_runtime_total"`
	MatchedRewardTotal  float64 `json:"matched_reward_total"`
	// Reward is the shadow's canonical reward spec (the stream's,
	// inherited, unless the shadow declared its own); RewardTotal sums
	// the shadow's reward score of every observed round — the served
	// traffic's worth under this shadow's reward definition.
	Reward      RewardSpec `json:"reward"`
	RewardTotal float64    `json:"reward_total"`
	// EstimatedRegret is the cumulative model-estimated extra cost of
	// the shadow's choices over the primary's, in the primary stream's
	// learning-signal units — seconds under the default runtime reward,
	// the primary's reward scale otherwise (never the shadow's own
	// reward; contrast MatchedRewardTotal). Negative = the shadow's
	// choices look better under the primary's learned models.
	EstimatedRegret float64 `json:"estimated_regret"`
}

func (sh *shadow) info() ShadowInfo {
	return ShadowInfo{
		Name:                sh.name,
		Policy:              sh.engine.Kind(),
		Round:               sh.engine.Round(),
		Decisions:           sh.decisions,
		Observations:        sh.observations,
		Agreements:          sh.agreements,
		MatchedRuntimeTotal: sh.matchedRuntime,
		MatchedRewardTotal:  sh.matchedReward,
		Reward:              sh.rw.spec,
		RewardTotal:         sh.rewardTotal,
		EstimatedRegret:     sh.estRegret,
	}
}

// shadowsInfoLocked summarises the stream's shadows. Callers hold st.mu.
func (st *stream) shadowsInfoLocked() []ShadowInfo {
	if len(st.shadows) == 0 {
		return nil
	}
	out := make([]ShadowInfo, len(st.shadows))
	for i, sh := range st.shadows {
		out[i] = sh.info()
	}
	return out
}

// shadowRecommendLocked lets every shadow select an arm for x and
// returns the per-shadow choices keyed by shadow name. Callers hold
// st.mu.
func (st *stream) shadowRecommendLocked(x []float64) map[string]int {
	if len(st.shadows) == 0 {
		return nil
	}
	arms := make(map[string]int, len(st.shadows))
	for _, sh := range st.shadows {
		d := &sh.dec
		if err := sh.engine.RecommendInto(x, d); err != nil {
			// Shadows share the stream's dimension, so this cannot be a
			// caller error; skip the round rather than fail the primary.
			continue
		}
		sh.decisions++
		arms[sh.name] = d.Arm
	}
	return arms
}

// shadowObserveLocked feeds one completed observation to every shadow:
// off-policy model update under the shadow's own reward, agreement and
// replay counters, and the model-estimated regret of the shadow's
// earlier choice. The same Outcome is replayed through each shadow's
// reward function, so shadows with different RewardSpecs score (and
// learn from) the identical ground truth differently — live A/B of
// reward regimes, not just policies. shadowArms maps shadow name to the
// arm it chose when the context was first seen (shadows attached since
// then are absent and only learn). Callers hold st.mu.
func (st *stream) shadowObserveLocked(shadowArms map[string]int, arm int, x []float64, o Outcome) {
	var preds []float64
	if len(shadowArms) > 0 {
		preds = st.predictLocked(x) // nil when the primary has no model
	}
	hw := st.engine.Hardware()[arm]
	for _, sh := range st.shadows {
		sh.observations++
		// The shadow's own score of the round actually served.
		score := sh.rw.fn(o, hw)
		sh.rewardTotal += score
		if sa, ok := shadowArms[sh.name]; ok {
			if sa == arm {
				sh.agreements++
				sh.matchedRuntime += o.Runtime
				sh.matchedReward += score
			}
			if sa < len(preds) && arm < len(preds) {
				sh.estRegret += preds[sa] - preds[arm]
			}
		}
		// Off-policy update: the primary's arm and the measured outcome
		// are the only ground truth available; the shadow learns from its
		// own reward of them.
		_ = sh.engine.Observe(arm, x, score)
	}
}

// ShadowConfig describes one shadow policy: its name (unique on the
// stream, in the stream-name charset), its policy and, optionally, its
// own reward. Its JSON form is one entry of the create document's
// "shadows" list and the body of POST /v1/streams/{name}/shadows.
type ShadowConfig struct {
	Name   string     `json:"name"`
	Policy PolicySpec `json:"policy"`
	// Reward is the shadow's own reward spec: the shadow replays every
	// Outcome through it instead of the stream's reward, so an operator
	// can A/B a reward regime on live traffic. nil inherits the
	// stream's reward.
	Reward *RewardSpec `json:"reward,omitempty"`
}

// AttachShadow attaches a shadow policy to a stream. The shadow shares
// the stream's hardware set and feature dimension; it receives every
// subsequent context and observation and never serves traffic. Its
// evaluation counters appear in StreamInfo, Stats, and the shadows HTTP
// endpoint.
func (s *Service) AttachShadow(streamName string, cfg ShadowConfig) error {
	st, err := s.stream(streamName)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.attachShadowLocked(cfg)
}

// attachShadowLocked builds and attaches one shadow, or changes nothing.
// Callers hold st.mu (or own a stream not yet registered).
func (st *stream) attachShadowLocked(cfg ShadowConfig) error {
	if !ValidStreamName(cfg.Name) {
		return fmt.Errorf("%w: %q", ErrBadStreamName, cfg.Name)
	}
	rw, inherited := st.rw, cfg.Reward == nil
	if !inherited {
		var err error
		if rw, err = compileReward(*cfg.Reward); err != nil {
			return err
		}
	}
	for _, sh := range st.shadows {
		if sh.name == cfg.Name {
			return fmt.Errorf("%w: %q", ErrShadowExists, cfg.Name)
		}
	}
	hw, dim := st.engine.Hardware(), st.engine.Dim()
	if err := checkStreamShape(len(hw), len(st.shadows)+1, dim); err != nil {
		return err
	}
	kind, _ := cfg.Policy.kind() // an unknown type fails in buildEngine
	eng, err := buildEngine(hw, dim, core.Options{Seed: cfg.Policy.Seed}, cfg.Policy, shadowAdapt(st.adapt, kind))
	if err != nil {
		return err
	}
	st.shadows = append(st.shadows, &shadow{name: cfg.Name, engine: eng, rw: rw, rwInherited: inherited})
	return nil
}

// shadowAdapt is the adaptation a shadow of policy kind replays under on
// a stream adapting by streamAdapt. Shadows forget (or slide) exactly
// like the primary, so the A/B comparison stays fair in non-stationary
// environments. The on-drift response is the primary's alone: shadows
// are never auto-reset (and carry no detectors). A model-free shadow
// has nothing to forget, so it attaches to any stream.
func shadowAdapt(streamAdapt AdaptSpec, kind string) AdaptSpec {
	if kind == PolicyRandom {
		return defaultAdapt()
	}
	streamAdapt.OnDrift = DriftObserve
	return streamAdapt
}

// DetachShadow removes a shadow from a stream, dropping its model
// state, counters, and recorded per-ticket selections (so a future
// shadow reusing the name is never credited with this one's choices).
func (s *Service) DetachShadow(streamName, shadowName string) error {
	st, err := s.stream(streamName)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, sh := range st.shadows {
		if sh.name == shadowName {
			st.shadows = append(st.shadows[:i], st.shadows[i+1:]...)
			st.ledger.detachShadow(shadowName)
			return nil
		}
	}
	return fmt.Errorf("%w: %q", ErrShadowNotFound, shadowName)
}

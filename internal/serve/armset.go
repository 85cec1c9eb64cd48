package serve

import (
	"errors"
	"fmt"
	"math"

	"banditware/internal/armset"
	"banditware/internal/core"
	"banditware/internal/hardware"
	"banditware/internal/regress"
)

// Arm-set elasticity: runtime add / drain / promote / retire of a
// stream's hardware configurations. The lifecycle state machine itself
// lives in internal/armset; this file threads it through the serving
// layer — growing engines and shadows in place, warm-starting new arms
// from existing sufficient statistics, and keeping the delta-sync
// baselines index-aligned across a retire.

// AddArm implements Engine, shadowing the embedded bandit's
// (int, error) signature.
func (e banditEngine) AddArm(cfg hardware.Config) error {
	_, err := e.Bandit.AddArm(cfg)
	return err
}

// AddArm implements Engine.
func (e *policyEngine) AddArm(cfg hardware.Config) error {
	hw := append(append(hardware.Set{}, e.hw...), cfg)
	if err := hw.Validate(); err != nil {
		return err
	}
	if err := e.p.AddArm(); err != nil {
		return err
	}
	e.hw = hw
	return nil
}

// RemoveArm implements Engine.
func (e *policyEngine) RemoveArm(arm int) error {
	if err := e.p.RemoveArm(arm); err != nil {
		return err
	}
	e.hw = append(append(hardware.Set{}, e.hw[:arm]...), e.hw[arm+1:]...)
	return nil
}

// Arm lifecycle errors.
var (
	// ErrArmNotFound reports an arm index outside the stream's current
	// set. HTTP maps it to 404.
	ErrArmNotFound = errors.New("serve: arm not found")
	// ErrArmLifecycle reports a lifecycle transition the arm's current
	// status does not allow (retiring an active arm, draining the last
	// active arm, ...). HTTP maps it to 422.
	ErrArmLifecycle = errors.New("serve: arm lifecycle transition rejected")
	// ErrBadArmRequest reports a semantically invalid arm request
	// (unknown warm mode, duplicate hardware name, out-of-range warm
	// weight). HTTP maps it to 422.
	ErrBadArmRequest = errors.New("serve: invalid arm request")
)

// mapArmsetErr translates armset sentinels into the service vocabulary.
func mapArmsetErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, armset.ErrArm):
		return fmt.Errorf("%w: %v", ErrArmNotFound, err)
	case errors.Is(err, armset.ErrState), errors.Is(err, armset.ErrLastActive):
		return fmt.Errorf("%w: %v", ErrArmLifecycle, err)
	}
	return err
}

// defaultWarmWeight scales a warm-started arm's seed statistics when the
// request does not say: a quarter of the donor mass is enough to rank
// sanely from the first request without drowning the arm's own data.
const defaultWarmWeight = 0.25

// ArmAdd describes one arm addition.
type ArmAdd struct {
	// Hardware is the new arm's configuration (name must be unique in
	// the stream's set).
	Hardware hardware.Config
	// Warm selects how the new arm's estimator is seeded: "" or "cold"
	// (ridge prior only), "pooled" (scaled average of every existing
	// arm's learned statistics), or "nearest" (scaled statistics of the
	// arm closest in hardware feature space). Warm starts degrade to
	// cold on engines whose state is not mergeable (windowed,
	// forgetting, model-free).
	Warm string
	// WarmWeight scales the donor statistics, in (0, 1]; 0 selects
	// defaultWarmWeight.
	WarmWeight float64
	// Trial adds the arm in the Trial state: it exists in the engine
	// and learns (warm start, direct observes, shadow replay) but is
	// never chosen for live traffic until promoted.
	Trial bool
}

// ArmInfo is one arm's listing entry.
type ArmInfo struct {
	Arm      int    `json:"arm"`
	Hardware string `json:"hardware"`
	Status   string `json:"status"`
}

// Arms lists the named stream's arms with their lifecycle status.
func (s *Service) Arms(name string) ([]ArmInfo, error) {
	st, err := s.stream(name)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]ArmInfo, len(st.armLabels))
	for i, label := range st.armLabels {
		out[i] = ArmInfo{Arm: i, Hardware: label, Status: st.life.Status(i).String()}
	}
	return out, nil
}

// AddArm grows the named stream with one new hardware configuration at
// runtime — no stream recreation, no lost state. The engine and every
// shadow gain an estimator for the new arm; the warm-start mode seeds it
// from existing arms' statistics where the engine supports merging.
// Returns the new arm's index.
func (s *Service) AddArm(name string, add ArmAdd) (int, error) {
	warm, err := armset.ParseWarm(add.Warm)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadArmRequest, err)
	}
	weight := add.WarmWeight
	if weight == 0 {
		weight = defaultWarmWeight
	}
	if weight < 0 || weight > 1 || math.IsNaN(weight) {
		return 0, fmt.Errorf("%w: warm weight %v outside (0, 1]", ErrBadArmRequest, add.WarmWeight)
	}
	st, err := s.stream(name)
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.addArmLocked(add.Hardware, warm, weight, add.Trial)
}

// addArmLocked grows the engine, shadows, and per-arm bookkeeping by one
// arm. Callers hold st.mu.
func (st *stream) addArmLocked(cfg hardware.Config, warm armset.Warm, weight float64, trial bool) (int, error) {
	// Nothing mutates until the grown hardware set validates, so a
	// rejected add leaves the stream exactly as it was.
	grown := append(append(hardware.Set{}, st.engine.Hardware()...), cfg)
	if err := grown.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadArmRequest, err)
	}
	if err := checkStreamShape(len(grown), len(st.shadows), st.engine.Dim()); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadArmRequest, err)
	}
	// The warm mass is resolved before the arm set changes: nearest-
	// neighbor distance and the pooled average run over the pre-add set.
	warmMass, haveWarm := st.warmMassLocked(cfg, warm, weight)

	if err := st.engine.AddArm(cfg); err != nil {
		return 0, err
	}
	for _, sh := range st.shadows {
		// The grown set already validated, so a failure here is
		// unreachable — but a shadow is advisory state, never worth
		// failing the stream's add over.
		_ = sh.engine.AddArm(cfg)
	}
	idx := len(st.engine.Hardware()) - 1
	st.armLabels = append(st.armLabels, cfg.String())
	st.detectors = append(st.detectors, newDetectors(st.adapt, 1)...)
	if st.armGen != nil {
		st.armGen = append(st.armGen, 0)
	}
	if st.merged != nil {
		st.merged.Arms = append(st.merged.Arms, regress.Sufficient{Dim: st.engine.Dim()})
		st.merged.Drift = append(st.merged.Drift, 0)
		if st.merged.DriftBase != nil {
			st.merged.DriftBase = append(st.merged.DriftBase, 0)
		}
	}
	st.life.Add(trial)
	if haveWarm {
		if err := st.engine.MergeArmDelta(idx, warmMass); err == nil {
			// The warm seed is borrowed knowledge, not local traffic:
			// record it as foreign so delta capture never ships it and
			// fleet merges stay echo-free.
			m := st.ensureMergedLocked()
			if sum, err := m.Arms[idx].Add(warmMass); err == nil {
				m.Arms[idx] = sum
			}
		}
	}
	return idx, nil
}

// warmMassLocked resolves the scaled donor statistics for a new arm, or
// (zero, false) when the warm start degrades to cold — cold mode, a
// non-mergeable engine, or no donor with any learned mass. Callers hold
// st.mu and call before the arm set grows.
func (st *stream) warmMassLocked(cfg hardware.Config, warm armset.Warm, weight float64) (regress.Sufficient, bool) {
	if warm == armset.WarmCold {
		return regress.Sufficient{}, false
	}
	hw := st.engine.Hardware()
	dim := st.engine.Dim()
	// learned is an arm's full data mass — everything above the ridge
	// prior, local and fleet-merged alike — the most informed seed
	// available on this replica. A model-free or non-mergeable engine
	// has none, and the start degrades to cold.
	learned := func(a int) (regress.Sufficient, bool) {
		l, err := st.engine.ArmLearned(a)
		return l, err == nil
	}
	var donor regress.Sufficient
	switch warm {
	case armset.WarmNearest:
		nn := armset.Nearest(hw, cfg, nil)
		if nn < 0 {
			return regress.Sufficient{}, false
		}
		d, ok := learned(nn)
		if !ok {
			return regress.Sufficient{}, false
		}
		donor = d
	case armset.WarmPooled:
		sum := regress.Sufficient{Dim: dim}
		n := 0
		for a := range hw {
			d, ok := learned(a)
			if !ok {
				continue
			}
			s2, err := sum.Add(d)
			if err != nil {
				continue
			}
			sum, n = s2, n+1
		}
		if n == 0 {
			return regress.Sufficient{}, false
		}
		donor = scaleSufficient(sum, 1/float64(n))
	}
	mass := scaleSufficient(donor, weight)
	if mass.IsZero() {
		return regress.Sufficient{}, false
	}
	return mass, true
}

// scaleSufficient multiplies a sufficient-statistic block by w, rounding
// the observation count to the nearest integer. A nonnegative scale of a
// data Gram mass stays positive semidefinite, so the result is always
// mergeable.
func scaleSufficient(s regress.Sufficient, w float64) regress.Sufficient {
	if s.IsZero() {
		return regress.Sufficient{Dim: s.Dim}
	}
	out := regress.Sufficient{
		Dim: s.Dim,
		N:   int(float64(s.N)*w + 0.5),
		A:   make([]float64, len(s.A)),
		B:   make([]float64, len(s.B)),
	}
	for i, v := range s.A {
		out.A[i] = v * w
	}
	for i, v := range s.B {
		out.B[i] = v * w
	}
	return out
}

// DrainArm moves an arm out of live serving: recommendations reroute to
// the remaining active arms while pending tickets still resolve and the
// arm keeps learning. Draining the last active arm is rejected.
func (s *Service) DrainArm(name string, arm int) error {
	st, err := s.stream(name)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.life.Drain(arm); err != nil {
		return mapArmsetErr(err)
	}
	return nil
}

// PromoteArm moves a Trial or Draining arm back into live serving.
func (s *Service) PromoteArm(name string, arm int) error {
	st, err := s.stream(name)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.life.Promote(arm); err != nil {
		return mapArmsetErr(err)
	}
	return nil
}

// RetireArm removes a Draining or Trial arm from the named stream
// entirely: the engine and every shadow drop its estimator, later arms'
// indices shift down by one, pending tickets on the arm are evicted
// (their runtimes can no longer train anything), and every delta-sync
// baseline is spliced in step so fleet syncs stay aligned. An Active arm
// must be drained first.
func (s *Service) RetireArm(name string, arm int) error {
	st, err := s.stream(name)
	if err != nil {
		return err
	}
	// Lock order matches CaptureDelta: syncMu, then the stream — the
	// per-peer baselines must be spliced under the same cut as the arm
	// set, or a concurrent capture would pair stale baselines with the
	// shifted arm indices.
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.retireArmLocked(s, arm)
}

// retireArmLocked removes one arm everywhere. Callers hold s.syncMu and
// st.mu, in that order.
func (st *stream) retireArmLocked(s *Service, arm int) error {
	// The lifecycle validates the transition (Draining or Trial only,
	// never the last arm standing) and is the first mutation; everything
	// after cannot fail.
	if err := st.life.Retire(arm); err != nil {
		return mapArmsetErr(err)
	}
	if err := st.engine.RemoveArm(arm); err != nil {
		return err
	}
	for _, sh := range st.shadows {
		_ = sh.engine.RemoveArm(arm)
	}
	st.armLabels = append(st.armLabels[:arm], st.armLabels[arm+1:]...)
	st.detectors = append(st.detectors[:arm], st.detectors[arm+1:]...)
	if st.armGen != nil && arm < len(st.armGen) {
		st.armGen = append(st.armGen[:arm], st.armGen[arm+1:]...)
	}
	if m := st.merged; m != nil {
		if arm < len(m.Arms) {
			m.Arms = append(m.Arms[:arm], m.Arms[arm+1:]...)
		}
		if arm < len(m.Drift) {
			m.Drift = append(m.Drift[:arm], m.Drift[arm+1:]...)
		}
		if arm < len(m.DriftBase) {
			m.DriftBase = append(m.DriftBase[:arm], m.DriftBase[arm+1:]...)
		}
	}
	// Per-peer sync baselines splice in step, so the next capture
	// compares index-aligned slices instead of re-anchoring every arm
	// above the retired one.
	for _, ss := range s.syncStates {
		pb := ss.streams[st.name]
		if pb == nil {
			continue
		}
		if arm < len(pb.arms) {
			pb.arms = append(pb.arms[:arm], pb.arms[arm+1:]...)
		}
		if arm < len(pb.gens) {
			pb.gens = append(pb.gens[:arm], pb.gens[arm+1:]...)
		}
		if arm < len(pb.drift) {
			pb.drift = append(pb.drift[:arm], pb.drift[arm+1:]...)
		}
	}
	st.ledger.retireArm(arm)
	return nil
}

// rerouteLocked redirects a decision that landed on a non-servable
// (draining or trial) arm to the best active arm: lowest predicted
// runtime where the engine has a model, lowest-index active arm
// otherwise. Callers hold st.mu; the lifecycle guarantees at least one
// active arm exists.
func (st *stream) rerouteLocked(d *core.Decision, x []float64) {
	active := st.life.ActiveIndices()
	if len(active) == 0 {
		return
	}
	preds := d.Predicted
	if len(preds) == 0 {
		preds = st.predictLocked(x)
	}
	best := active[0]
	if best < len(preds) {
		for _, a := range active[1:] {
			if a < len(preds) && preds[a] < preds[best] {
				best = a
			}
		}
	}
	d.Arm = best
}

// armStatesLocked renders the per-arm lifecycle statuses, or nil while
// every arm is active (the steady state, omitted from info and
// snapshots). Callers hold st.mu.
func (st *stream) armStatesLocked() []string {
	if st.life.AllActive() {
		return nil
	}
	statuses := st.life.Statuses()
	out := make([]string, len(statuses))
	for i, s := range statuses {
		out[i] = s.String()
	}
	return out
}

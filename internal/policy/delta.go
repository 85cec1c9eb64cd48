package policy

import (
	"errors"
	"fmt"

	"banditware/internal/regress"
)

// ErrNotMergeable reports a delta operation on a policy whose model
// state is not a pure sum of observation contributions (sliding windows
// keep raw buffers; exponential forgetting decays old terms).
var ErrNotMergeable = errors.New("policy: model state is not delta-mergeable")

// Delta hooks for replicated serving. A Linear policy exposes per-arm
// information-form sufficient statistics so replicas can exchange
// additive deltas: ArmSufficient and ArmPrior feed delta extraction
// (current minus base, prior as the base after an arm reset), and
// MergeArmSufficient folds a peer's delta in. All three fail with
// ErrNotMergeable when the policy is configured with windowing or
// forgetting.

// mergeableArm reports ErrNotMergeable when the policy's configuration
// cannot exchange deltas, and ErrArm for an out-of-range arm. The
// configuration is fixed once the policy has learned, so a passing
// check holds for the policy's lifetime.
func (l *Linear) mergeableArm(arm int) error {
	if l.window > 0 {
		return fmt.Errorf("%w: sliding-window adaptation", ErrNotMergeable)
	}
	if l.forget < 1 {
		return fmt.Errorf("%w: exponential forgetting", ErrNotMergeable)
	}
	return l.checkArm(arm)
}

// ArmSufficient returns arm's current sufficient statistics.
func (l *Linear) ArmSufficient(arm int) (regress.Sufficient, error) {
	if err := l.mergeableArm(arm); err != nil {
		return regress.Sufficient{}, err
	}
	return l.arms[arm].Sufficient(), nil
}

// ArmPrior returns the sufficient statistics of arm's untrained prior.
func (l *Linear) ArmPrior(arm int) (regress.Sufficient, error) {
	if err := l.mergeableArm(arm); err != nil {
		return regress.Sufficient{}, err
	}
	return l.arms[arm].Prior(), nil
}

// MergeArmSufficient folds a peer's additive delta into arm's model.
func (l *Linear) MergeArmSufficient(arm int, delta regress.Sufficient) error {
	if err := l.mergeableArm(arm); err != nil {
		return err
	}
	return l.arms[arm].ApplyDelta(delta)
}

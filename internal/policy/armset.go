package policy

import "errors"

// Arm-set elasticity: AddArm appends one untrained arm (the serving
// layer warm-starts it afterwards when the policy's models are
// delta-mergeable), and RemoveArm retires arm i, shifting every later
// arm's index down by one. Linear and Random support it; Oracle (fixed
// truth table) and DecayingEpsilonGreedy (arm set owned by the wrapped
// core.Bandit, which carries the hardware configs) do not.

// errLastArm rejects removing a policy's only arm.
var errLastArm = errors.New("policy: cannot remove the last arm")

// AddArm appends an untrained arm in the configured adaptation mode.
func (l *Linear) AddArm() error {
	l.arms.Add()
	return nil
}

// RemoveArm retires arm, discarding its estimator and window buffer.
func (l *Linear) RemoveArm(arm int) error {
	if err := l.checkArm(arm); err != nil {
		return err
	}
	if l.arms.Len() == 1 {
		return errLastArm
	}
	l.arms.Remove(arm)
	return nil
}

// AddArm appends an arm. Random keeps no per-arm state beyond the
// count.
func (p *Random) AddArm() error {
	p.n++
	return nil
}

// RemoveArm retires arm.
func (p *Random) RemoveArm(arm int) error {
	if arm < 0 || arm >= p.n {
		return ErrArm
	}
	if p.n == 1 {
		return errLastArm
	}
	p.n--
	return nil
}

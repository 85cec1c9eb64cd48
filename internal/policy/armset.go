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

// AddArm appends a fresh estimator honouring the configured adaptation
// mode.
func (l *Linear) AddArm() error {
	rls, err := l.fresh()
	if err != nil {
		return err
	}
	l.arms = append(l.arms, rls)
	if l.window > 0 {
		l.wxs = append(l.wxs, nil)
		l.wys = append(l.wys, nil)
	}
	return nil
}

// RemoveArm retires arm, discarding its estimator and window buffer.
func (l *Linear) RemoveArm(arm int) error {
	if err := l.checkArm(arm); err != nil {
		return err
	}
	if len(l.arms) == 1 {
		return errLastArm
	}
	l.arms = append(l.arms[:arm], l.arms[arm+1:]...)
	if l.window > 0 {
		l.wxs = append(l.wxs[:arm], l.wxs[arm+1:]...)
		l.wys = append(l.wys[:arm], l.wys[arm+1:]...)
	}
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

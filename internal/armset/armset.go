// Package armset manages the lifecycle of a stream's arm set: which
// arms are serving, which are being trialled on shadow traffic, and
// which are draining toward retirement. It also provides warm-start
// selection for newly added arms (pooled prior or nearest-neighbor by
// hardware feature distance).
//
// The package is deliberately free of policy/estimator knowledge: it
// tracks per-arm status and answers "may this arm serve?", while the
// serving layer owns growing or shrinking the underlying estimators.
package armset

import (
	"errors"
	"fmt"

	"banditware/internal/hardware"
)

// Status is the lifecycle state of a single arm.
type Status uint8

const (
	// Active arms serve live traffic.
	Active Status = iota
	// Trial arms exist in the estimator and learn from shadow
	// replay, but are never chosen for live recommendations until
	// promoted.
	Trial
	// Draining arms stop receiving new recommendations; pending
	// tickets still resolve, and the arm can be retired once the
	// operator is satisfied (or promoted back).
	Draining
)

func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Trial:
		return "trial"
	case Draining:
		return "draining"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// ParseStatus is the inverse of Status.String.
func ParseStatus(s string) (Status, error) {
	switch s {
	case "active":
		return Active, nil
	case "trial":
		return Trial, nil
	case "draining":
		return Draining, nil
	default:
		return Active, fmt.Errorf("armset: unknown status %q", s)
	}
}

var (
	// ErrArm reports an arm index outside the current set.
	ErrArm = errors.New("armset: arm index out of range")
	// ErrState reports a lifecycle transition that is not allowed
	// from the arm's current status.
	ErrState = errors.New("armset: invalid lifecycle transition")
	// ErrLastActive reports an operation that would leave the
	// stream with no active arm.
	ErrLastActive = errors.New("armset: operation would leave no active arm")
)

// Lifecycle tracks per-arm status for one stream. It is not
// goroutine-safe; callers hold the stream lock.
type Lifecycle struct {
	statuses []Status
}

// NewLifecycle returns a lifecycle with n active arms.
func NewLifecycle(n int) *Lifecycle {
	return &Lifecycle{statuses: make([]Status, n)}
}

// Len reports the number of arms tracked.
func (l *Lifecycle) Len() int { return len(l.statuses) }

// Status returns the status of arm i, or Active if out of range.
func (l *Lifecycle) Status(i int) Status {
	if i < 0 || i >= len(l.statuses) {
		return Active
	}
	return l.statuses[i]
}

// Statuses returns a copy of all per-arm statuses.
func (l *Lifecycle) Statuses() []Status {
	out := make([]Status, len(l.statuses))
	copy(out, l.statuses)
	return out
}

// AllActive reports whether every arm is in the default Active state.
func (l *Lifecycle) AllActive() bool {
	for _, s := range l.statuses {
		if s != Active {
			return false
		}
	}
	return true
}

// Servable reports whether arm i may be chosen for live traffic.
func (l *Lifecycle) Servable(i int) bool {
	if i < 0 || i >= len(l.statuses) {
		return false
	}
	return l.statuses[i] == Active
}

// ActiveIndices returns the indices of all active arms in order.
func (l *Lifecycle) ActiveIndices() []int {
	out := make([]int, 0, len(l.statuses))
	for i, s := range l.statuses {
		if s == Active {
			out = append(out, i)
		}
	}
	return out
}

// Add appends a new arm, either live (Active) or as a shadow Trial,
// and returns its index.
func (l *Lifecycle) Add(trial bool) int {
	st := Active
	if trial {
		st = Trial
	}
	l.statuses = append(l.statuses, st)
	return len(l.statuses) - 1
}

// Drain moves an Active or Trial arm to Draining. Draining the last
// active arm is rejected: a stream must always have something to
// serve.
func (l *Lifecycle) Drain(i int) error {
	if i < 0 || i >= len(l.statuses) {
		return ErrArm
	}
	switch l.statuses[i] {
	case Active:
		if l.countActive() == 1 {
			return ErrLastActive
		}
	case Trial:
		// fine: trial arms never served live traffic
	default:
		return fmt.Errorf("%w: arm %d is %s", ErrState, i, l.statuses[i])
	}
	l.statuses[i] = Draining
	return nil
}

// Promote moves a Trial or Draining arm back to Active.
func (l *Lifecycle) Promote(i int) error {
	if i < 0 || i >= len(l.statuses) {
		return ErrArm
	}
	switch l.statuses[i] {
	case Trial, Draining:
		l.statuses[i] = Active
		return nil
	default:
		return fmt.Errorf("%w: arm %d is already %s", ErrState, i, l.statuses[i])
	}
}

// Retire removes arm i from the set. Only Draining or Trial arms can
// be retired — an Active arm must be drained first so in-flight
// traffic quiesces deliberately.
func (l *Lifecycle) Retire(i int) error {
	if i < 0 || i >= len(l.statuses) {
		return ErrArm
	}
	switch l.statuses[i] {
	case Draining, Trial:
	default:
		return fmt.Errorf("%w: arm %d is %s; drain it first", ErrState, i, l.statuses[i])
	}
	l.statuses = append(l.statuses[:i], l.statuses[i+1:]...)
	return nil
}

// Restore replaces the tracked statuses wholesale (snapshot load).
func (l *Lifecycle) Restore(statuses []Status) {
	l.statuses = make([]Status, len(statuses))
	copy(l.statuses, statuses)
}

func (l *Lifecycle) countActive() int {
	n := 0
	for _, s := range l.statuses {
		if s == Active {
			n++
		}
	}
	return n
}

// Warm selects how a newly added arm's estimator is initialized.
type Warm uint8

const (
	// WarmCold starts the new arm from the ridge prior only.
	WarmCold Warm = iota
	// WarmPooled seeds the new arm with a scaled average of every
	// existing arm's sufficient statistics.
	WarmPooled
	// WarmNearest seeds the new arm from the existing arm whose
	// hardware configuration is closest in feature space.
	WarmNearest
)

func (w Warm) String() string {
	switch w {
	case WarmCold:
		return "cold"
	case WarmPooled:
		return "pooled"
	case WarmNearest:
		return "nearest"
	default:
		return fmt.Sprintf("warm(%d)", uint8(w))
	}
}

// ParseWarm parses a warm-start mode; the empty string means cold.
func ParseWarm(s string) (Warm, error) {
	switch s {
	case "", "cold":
		return WarmCold, nil
	case "pooled":
		return WarmPooled, nil
	case "nearest":
		return WarmNearest, nil
	default:
		return WarmCold, fmt.Errorf("armset: unknown warm-start mode %q (want cold, pooled, or nearest)", s)
	}
}

// Nearest returns the index of the eligible arm in set whose hardware
// is closest to cfg under a normalized squared distance over (CPUs,
// MemoryGB, GPUs), or -1 if no arm is eligible. Each dimension is
// scaled by its maximum across set and cfg so no single axis
// dominates.
func Nearest(set hardware.Set, cfg hardware.Config, eligible func(int) bool) int {
	maxC := float64(cfg.CPUs)
	maxM := cfg.MemoryGB
	maxG := float64(cfg.GPUs)
	for _, h := range set {
		if float64(h.CPUs) > maxC {
			maxC = float64(h.CPUs)
		}
		if h.MemoryGB > maxM {
			maxM = h.MemoryGB
		}
		if float64(h.GPUs) > maxG {
			maxG = float64(h.GPUs)
		}
	}
	norm := func(v, max float64) float64 {
		if max <= 0 {
			return 0
		}
		return v / max
	}
	best, bestDist := -1, 0.0
	for i, h := range set {
		if eligible != nil && !eligible(i) {
			continue
		}
		dc := norm(float64(h.CPUs), maxC) - norm(float64(cfg.CPUs), maxC)
		dm := norm(h.MemoryGB, maxM) - norm(cfg.MemoryGB, maxM)
		dg := norm(float64(h.GPUs), maxG) - norm(float64(cfg.GPUs), maxG)
		d := dc*dc + dm*dm + dg*dg
		if best == -1 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

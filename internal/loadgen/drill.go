package loadgen

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// drill is the one schedule for mid-run drills (arm churn and the fleet
// kill/restart): an ordered list of steps, each keyed to an op index of
// the trace. Keying to op indices of a seeded trace, not to wall-clock
// time, puts each step at the same point of the replay on every run.
//
// The driver calls claim once per op it starts. The goroutine whose
// claim reaches a step's index runs every step still pending up to that
// index, in order, under one lock: a step never starts before the step
// ahead of it has returned, whichever goroutine ran that one. Requests
// already in flight overlap each step, the way live traffic overlaps a
// rollout or an outage.
type drill struct {
	steps   []drillStep // sorted by at; fixed once the run starts
	claimed atomic.Int64

	mu          sync.Mutex
	ran         int // steps[:ran] have run
	err         error
	churnEvents uint64 // lifecycle transitions the churn steps applied
}

type drillStep struct {
	at  int
	run func() error
}

// minDrillOps keeps every drill threshold a distinct op index.
const minDrillOps = 9

// newDrill schedules the drills opts asks for over tr, or returns nil
// when it asks for none.
func newDrill(tgt Target, tr *Trace, opts RunOptions) (*drill, error) {
	if !opts.Churn && !opts.Chaos {
		return nil, nil
	}
	n := len(tr.Ops)
	if n < minDrillOps {
		return nil, fmt.Errorf("loadgen: a drill needs at least %d ops, trace has %d", minDrillOps, n)
	}
	d := &drill{}
	if opts.Churn {
		c, ok := tgt.(ArmChurner)
		if !ok {
			return nil, fmt.Errorf("loadgen: target %s does not support arm churn", tgt.Name())
		}
		d.steps = append(d.steps, churnSteps(c, tr, &d.churnEvents)...)
	}
	if opts.Chaos {
		k, ok := tgt.(ReplicaKiller)
		if !ok {
			return nil, fmt.Errorf("loadgen: target %s does not support the chaos drill", tgt.Name())
		}
		steps, err := chaosSteps(k, n)
		if err != nil {
			return nil, err
		}
		d.steps = append(d.steps, steps...)
	}
	slices.SortStableFunc(d.steps, func(a, b drillStep) int { return cmp.Compare(a.at, b.at) })
	return d, nil
}

// claim counts one started op. Each claim gets a distinct index, so
// exactly one goroutine reaches each step's index; only that one takes
// the lock.
func (d *drill) claim() {
	i := int(d.claimed.Add(1) - 1)
	for _, s := range d.steps {
		if s.at == i {
			d.runUpTo(i)
			return
		}
	}
}

func (d *drill) runUpTo(i int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for ; d.ran < len(d.steps) && d.steps[d.ran].at <= i; d.ran++ {
		d.err = errors.Join(d.err, d.steps[d.ran].run())
	}
}

// finish reports the steps' errors, and fails a run that ended (by its
// Duration cap) before every step ran: its numbers would otherwise
// describe a drill that never happened.
func (d *drill) finish() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ran < len(d.steps) {
		return errors.Join(d.err, fmt.Errorf("loadgen: drill incomplete: %d of %d steps ran", d.ran, len(d.steps)))
	}
	return d.err
}

package loadgen

import (
	"errors"
	"fmt"

	"banditware/internal/hardware"
	"banditware/internal/serve"
)

// Arm-churn drill: exercise the runtime arm-lifecycle path (add →
// drain → retire) inside a measured load run, the way a hardware
// rollout happens on a live fleet. One warm-started configuration is
// added to every stream a quarter of the way through the trace,
// drained at half, and retired at three quarters, so the run prices
// recommendation traffic while the arm set is growing, rerouting, and
// shrinking.

// ArmChurner is the optional Target extension for runtime arm-set
// churn. InProc drives the Service API directly; HTTP targets go over
// the wire, and the fleet target inherits the wire path — the router
// broadcasts lifecycle requests to every replica, keeping the fleet's
// arm sets index-aligned for delta merges.
type ArmChurner interface {
	// AddArm grows the stream with one hardware config in "Name=CPUSxMEM"
	// spec form, warm-started per warm ("", cold, pooled, nearest).
	// Returns the new arm's index.
	AddArm(stream, spec, warm string) (int, error)
	// DrainArm moves the arm out of live serving (traffic reroutes).
	DrainArm(stream string, arm int) error
	// RetireArm removes a drained arm entirely.
	RetireArm(stream string, arm int) error
}

func (t *InProc) AddArm(stream, spec, warm string) (int, error) {
	cfg, err := hardware.Parse(spec)
	if err != nil {
		return 0, err
	}
	return t.Service.AddArm(stream, serve.ArmAdd{Hardware: cfg, Warm: warm})
}

func (t *InProc) DrainArm(stream string, arm int) error {
	return t.Service.DrainArm(stream, arm)
}

func (t *InProc) RetireArm(stream string, arm int) error {
	return t.Service.RetireArm(stream, arm)
}

func (t *HTTP) AddArm(stream, spec, warm string) (int, error) {
	body := map[string]any{"hardware_spec": spec}
	if warm != "" {
		body["warm"] = warm
	}
	var out struct {
		Arm int `json:"arm"`
	}
	if err := t.post("/v1/streams/"+stream+"/arms", body, &out); err != nil {
		return 0, err
	}
	return out.Arm, nil
}

func (t *HTTP) DrainArm(stream string, arm int) error {
	return t.post(fmt.Sprintf("/v1/streams/%s/arms/%d/drain", stream, arm), struct{}{}, nil)
}

func (t *HTTP) RetireArm(stream string, arm int) error {
	return t.del(fmt.Sprintf("/v1/streams/%s/arms/%d", stream, arm))
}

func (t *FleetTarget) AddArm(stream, spec, warm string) (int, error) {
	return t.inner.AddArm(stream, spec, warm)
}

func (t *FleetTarget) DrainArm(stream string, arm int) error {
	return t.inner.DrainArm(stream, arm)
}

func (t *FleetTarget) RetireArm(stream string, arm int) error {
	return t.inner.RetireArm(stream, arm)
}

// churnSpec is the configuration the drill rolls out. The name must not
// collide with any workload family's hardware set (those are H0..Hn /
// family-specific names), and the arm is appended last and retired
// last, so the trace's pre-sampled per-arm runtimes keep their indices
// through the whole drill.
const (
	churnSpec = "churn=8x64"
	churnWarm = "pooled"
)

// churnRun schedules the drill over one replay: thresholds are op
// indices, ticked by the single dispatcher goroutine, so transitions
// land at deterministic points in the trace (the requests in flight
// around each transition overlap it, exactly like a production
// rollout).
type churnRun struct {
	target     ArmChurner
	tr         *Trace
	addAt      int
	drainAt    int
	retireAt   int
	dispatched int
	arm        map[string]int // stream → index of the drill's arm
	events     uint64         // applied lifecycle transitions
	err        error
}

func newChurnRun(tgt Target, tr *Trace) (*churnRun, error) {
	c, ok := tgt.(ArmChurner)
	if !ok {
		return nil, fmt.Errorf("loadgen: target %s does not support arm churn", tgt.Name())
	}
	total := len(tr.Ops)
	if total < 8 {
		return nil, fmt.Errorf("loadgen: churn drill needs at least 8 ops, trace has %d", total)
	}
	return &churnRun{
		target:   c,
		tr:       tr,
		addAt:    total / 4,
		drainAt:  total / 2,
		retireAt: 3 * total / 4,
		arm:      make(map[string]int),
	}, nil
}

// tick advances the drill by one dispatched op. Called only from the
// dispatcher goroutine, so the state needs no locking; the lifecycle
// requests themselves hit targets that are safe for concurrent use.
func (c *churnRun) tick() {
	n := c.dispatched
	c.dispatched++
	switch n {
	case c.addAt:
		for i := range c.tr.Streams {
			name := c.tr.Streams[i].Name
			idx, err := c.target.AddArm(name, churnSpec, churnWarm)
			if err != nil {
				c.fail(fmt.Errorf("loadgen: churn add on %s: %w", name, err))
				continue
			}
			c.arm[name] = idx
			c.events++
		}
	case c.drainAt:
		c.transition("drain", c.target.DrainArm)
	case c.retireAt:
		c.transition("retire", c.target.RetireArm)
	}
}

func (c *churnRun) transition(verb string, apply func(string, int) error) {
	for name, idx := range c.arm {
		if err := apply(name, idx); err != nil {
			c.fail(fmt.Errorf("loadgen: churn %s on %s: %w", verb, name, err))
			continue
		}
		c.events++
	}
}

func (c *churnRun) fail(err error) {
	c.err = errors.Join(c.err, err)
}

// finish reports whether the drill actually ran to completion. A run
// cut short (duration cap hit before the retire threshold) would
// otherwise silently describe a drill that never happened — the same
// contract the chaos drill enforces.
func (c *churnRun) finish() error {
	err := c.err
	if c.dispatched <= c.retireAt {
		err = errors.Join(err, fmt.Errorf("loadgen: churn drill incomplete: %d of %d ops dispatched (retire threshold %d)",
			c.dispatched, len(c.tr.Ops), c.retireAt))
	}
	return err
}

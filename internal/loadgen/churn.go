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

// churnSpec is the configuration the drill rolls out. The name must not
// collide with any workload family's hardware set (those are H0..Hn /
// family-specific names), and the arm is appended last and retired
// last, so the trace's pre-sampled per-arm runtimes keep their indices
// through the whole drill.
const (
	churnSpec = "churn=8x64"
	churnWarm = "pooled"
)

// churnSteps schedules the drill's three transitions over tr: add at
// a quarter of the ops, drain at half, retire at three quarters. A
// stream whose add failed is left out of its drain and retire; every
// failure is returned from its step. events counts the transitions
// applied.
func churnSteps(c ArmChurner, tr *Trace, events *uint64) []drillStep {
	arm := make(map[string]int, len(tr.Streams)) // stream → index of the drill's arm
	add := func() error {
		var err error
		for i := range tr.Streams {
			name := tr.Streams[i].Name
			idx, aerr := c.AddArm(name, churnSpec, churnWarm)
			if aerr != nil {
				err = errors.Join(err, fmt.Errorf("loadgen: churn add on %s: %w", name, aerr))
				continue
			}
			arm[name] = idx
			*events++
		}
		return err
	}
	transition := func(verb string, apply func(string, int) error) func() error {
		return func() error {
			var err error
			for name, idx := range arm {
				if terr := apply(name, idx); terr != nil {
					err = errors.Join(err, fmt.Errorf("loadgen: churn %s on %s: %w", verb, name, terr))
					continue
				}
				*events++
			}
			return err
		}
	}
	n := len(tr.Ops)
	return []drillStep{
		{at: n / 4, run: add},
		{at: n / 2, run: transition("drain", c.DrainArm)},
		{at: 3 * n / 4, run: transition("retire", c.RetireArm)},
	}
}

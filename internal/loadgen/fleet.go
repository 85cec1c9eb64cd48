package loadgen

import (
	"errors"
	"fmt"

	"banditware/internal/dist"
)

// FleetTarget drives a self-hosted scale-out fleet — N replicated
// services behind the consistent-hash router (dist.LocalFleet) — over
// real loopback sockets. Every request takes the full production path:
// client → router proxy → owning replica, with background delta
// replication running between the replicas, so the numbers price the
// extra hop and the sync traffic against the single-node HTTP target.
// Stream set-up, recommends, observes and arm churn go through the
// embedded HTTP target pointed at the router.
//
// RunOptions.Chaos runs the kill/restart drill on it inside the
// measured run: replica 1 is hard-killed a third of the way through
// the trace and restarted (bootstrapping from its peers) at two
// thirds. Requests caught in the failover window surface as ordinary
// request errors in the report — the point of the drill is that the
// window stays small.
type FleetTarget struct {
	*HTTP
	fleet *dist.LocalFleet
}

// FleetConfig configures a fleet load target.
type FleetConfig struct {
	// Replicas is the fleet size (0 = 3).
	Replicas int
}

// NewFleet boots a LocalFleet (replicas + router on loopback) and
// targets its router endpoint.
func NewFleet(cfg FleetConfig) (*FleetTarget, error) {
	n := cfg.Replicas
	if n <= 0 {
		n = 3
	}
	f, err := dist.NewLocalFleet(dist.FleetOptions{Replicas: n})
	if err != nil {
		return nil, err
	}
	return &FleetTarget{HTTP: NewHTTP(f.RouterURL()), fleet: f}, nil
}

func (t *FleetTarget) Name() string { return "fleet" }

// Fleet exposes the underlying fleet (demos reach through for the
// router view after a run).
func (t *FleetTarget) Fleet() *dist.LocalFleet { return t.fleet }

// Close shuts the client and the fleet down.
func (t *FleetTarget) Close() error {
	return errors.Join(t.HTTP.Close(), t.fleet.Close())
}

// ReplicaKiller is the optional Target extension for the chaos drill.
type ReplicaKiller interface {
	// Replicas is the number of members, dead ones included.
	Replicas() int
	// Kill hard-stops member i.
	Kill(i int) error
	// Restart brings member i back.
	Restart(i int) error
}

func (t *FleetTarget) Replicas() int { return len(t.fleet.ReplicaURLs()) }

// Kill hard-stops replica i, then re-probes the members at once so the
// failover window is bounded by the requests in flight, not the poll
// interval.
func (t *FleetTarget) Kill(i int) error {
	defer t.fleet.Router().CheckNow()
	return t.fleet.Kill(i)
}

// Restart brings replica i back (peer bootstrap), then re-probes the
// members at once.
func (t *FleetTarget) Restart(i int) error {
	defer t.fleet.Router().CheckNow()
	return t.fleet.Restart(i)
}

// chaosVictim is the member the drill kills and restarts.
const chaosVictim = 1

// chaosSteps schedules the kill a third of the way through n ops and
// the restart at two thirds.
func chaosSteps(k ReplicaKiller, n int) ([]drillStep, error) {
	if r := k.Replicas(); r <= chaosVictim {
		return nil, fmt.Errorf("loadgen: chaos drill needs at least %d replicas, have %d", chaosVictim+1, r)
	}
	return []drillStep{
		{at: n / 3, run: func() error {
			if err := k.Kill(chaosVictim); err != nil {
				return fmt.Errorf("loadgen: chaos kill: %w", err)
			}
			return nil
		}},
		{at: 2 * n / 3, run: func() error {
			if err := k.Restart(chaosVictim); err != nil {
				return fmt.Errorf("loadgen: chaos restart: %w", err)
			}
			return nil
		}},
	}, nil
}

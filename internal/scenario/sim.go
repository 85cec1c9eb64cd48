package scenario

import (
	"container/heap"
	"fmt"
	"time"

	"banditware/internal/core"
	"banditware/internal/loadgen"
	"banditware/internal/rng"
	"banditware/internal/schema"
	"banditware/internal/serve"
	"banditware/internal/workloads"
)

// FixedClock is the deterministic wall clock scenario services run on:
// with real time out of the picture, a mid-run snapshot is a pure
// function of the scenario seed (the envelope's saved_at and every
// ticket's issued_at pin to this instant), so the acceptance test can
// assert byte-identical re-saves. Pass it as ServiceOptions.Now when
// restoring a scenario snapshot.
func FixedClock() time.Time { return time.Unix(1700000000, 0).UTC() }

// Runner drives one scenario run against a live serve.Service, one
// pre-drawn invocation at a time. The outcome of every decision comes
// back through the ticket ledger after the invocation's simulated
// end-to-end latency elapses, so observations arrive delayed and out of
// order exactly as a production fleet reports them — and in-flight
// tickets survive a mid-run snapshot/restore (SwapService).
type Runner struct {
	cfg      Config
	events   []event
	profiles []profile
	names    []string
	svc      *serve.Service

	next  int      // next event index
	comps compHeap // in-flight invocations, ordered by completion time
	now   float64  // simulated clock (last arrival processed)

	// Per-(stream, arm) last-use time for warm/cold accounting; -inf
	// (negative sentinel) when never used.
	lastUse []float64
	cold    []float64 // per-arm cold-start penalty, precomputed
	baseU   []float64 // per-arm base utilization, precomputed
	isFlash []bool    // per-stream flash membership
	flashA  []bool    // per-arm flash membership

	acct accounting
}

// completion is one in-flight invocation awaiting its observe.
type completion struct {
	at      float64
	ticket  string
	stream  int
	outcome serve.Outcome
}

type compHeap []completion

func (h compHeap) Len() int            { return len(h) }
func (h compHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h compHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *compHeap) Push(x interface{}) { *h = append(*h, x.(completion)) }
func (h *compHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// accounting accumulates the run metrics the invariants are asserted
// over. All latency totals are end-to-end seconds (service + queue +
// cold start), the quantity the queue_weighted reward scores.
type accounting struct {
	decisions, observes, coldStarts int
	errs                            int
	errSamples                      []string

	bandit, oracle, random float64
	armTotals              []float64 // per-arm, for the hindsight-static baseline

	phaseHit, phaseN [3]int // pre-flash, flash, recovery

	tailBandit, tailRandom float64
	tailN                  int

	served []bool // per-stream, any decision at all

	detectAt []float64 // per-flash-stream first-detection time, -1 = none

	curve []CurvePoint
}

// newShell pre-draws the scenario's deterministic generative state
// (events, stream profiles, latency model) without touching a service.
// NewRunner layers the live-service state on top; Trace uses the shell
// alone.
func newShell(cfg Config) *Runner {
	profs := buildProfiles(cfg, rng.New(cfg.Seed+7))
	rn := &Runner{
		cfg:      cfg,
		events:   buildEvents(cfg, profs, rng.New(cfg.Seed)),
		profiles: profs,
		cold:     make([]float64, len(cfg.Hardware)),
		baseU:    make([]float64, len(cfg.Hardware)),
		isFlash:  make([]bool, cfg.Streams),
		flashA:   make([]bool, len(cfg.Hardware)),
	}
	minC, maxC := cfg.Hardware[0].Cost(), cfg.Hardware[0].Cost()
	for _, hw := range cfg.Hardware {
		if c := hw.Cost(); c < minC {
			minC = c
		} else if c > maxC {
			maxC = c
		}
	}
	for a, hw := range cfg.Hardware {
		rn.cold[a] = workloads.ServerlessColdStart(hw)
		// Bigger tiers are scarcer, so they run hotter: base utilization
		// rises linearly with the tier's resource cost.
		if maxC > minC {
			rn.baseU[a] = 0.30 + 0.35*(hw.Cost()-minC)/(maxC-minC)
		} else {
			rn.baseU[a] = 0.30
		}
	}
	if cfg.FlashEnd > cfg.FlashStart {
		for i := 0; i < cfg.FlashStreams; i++ {
			rn.isFlash[i] = true
		}
		for _, a := range cfg.FlashArms {
			rn.flashA[a] = true
		}
	}
	return rn
}

// NewRunner pre-draws the whole scenario and provisions a fresh
// service: one stream per fleet function, all on the serverless tier
// set, the queue_weighted reward, and the scenario adaptation spec.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rn := newShell(cfg)
	rn.names = make([]string, cfg.Streams)
	rn.lastUse = make([]float64, cfg.Streams*len(cfg.Hardware))
	for i := range rn.lastUse {
		rn.lastUse[i] = -1e18
	}
	rn.acct.armTotals = make([]float64, len(cfg.Hardware))
	rn.acct.served = make([]bool, cfg.Streams)
	rn.acct.detectAt = make([]float64, cfg.FlashStreams)
	for i := range rn.acct.detectAt {
		rn.acct.detectAt[i] = -1
	}

	svc := serve.NewService(serve.ServiceOptions{Now: FixedClock})
	if err := rn.provision(svc); err != nil {
		return nil, err
	}
	rn.svc = svc
	return rn, nil
}

// provision creates the fleet's streams on svc.
func (rn *Runner) provision(svc *serve.Service) error {
	adapt := defaultAdapt()
	if rn.cfg.Adapt != nil {
		adapt = *rn.cfg.Adapt
	}
	sch := loadgen.ContextSchema(workloads.ServerlessFeatureNames)
	for i := 0; i < rn.cfg.Streams; i++ {
		name := streamName(i)
		rn.names[i] = name
		err := svc.CreateStream(name, serve.StreamConfig{
			Hardware: rn.cfg.Hardware,
			Schema:   sch,
			Policy:   rn.cfg.Policy,
			Reward:   serve.RewardSpec{Type: serve.RewardQueueWeighted, Lambda: rn.cfg.QueueWeight},
			Adapt:    adapt,
			Options:  core.Options{Seed: rn.cfg.Seed + uint64(i)*2654435761 + 1},
		})
		if err != nil {
			return fmt.Errorf("scenario: create stream %s: %w", name, err)
		}
	}
	return nil
}

// Service returns the service the runner is currently driving.
func (rn *Runner) Service() *serve.Service { return rn.svc }

// SwapService redirects the rest of the run to svc — the mid-run
// snapshot/restore hand-off. The replacement must hold the same stream
// population (a restore of a snapshot of the current one); in-flight
// invocations redeem their tickets against it, exercising the
// persisted pending ledger.
func (rn *Runner) SwapService(svc *serve.Service) { rn.svc = svc }

// Remaining reports how many invocations have not been issued yet.
func (rn *Runner) Remaining() int { return len(rn.events) - rn.next }

// Steps advances the simulation by up to n invocations (all remaining
// when n < 0) and returns how many it issued. Completions whose
// latency has elapsed are observed in arrival order interleaved with
// the new invocations.
func (rn *Runner) Steps(n int) int {
	if n < 0 || n > rn.Remaining() {
		n = rn.Remaining()
	}
	for i := 0; i < n; i++ {
		rn.step()
	}
	if rn.Remaining() == 0 {
		// End of trace: let every in-flight invocation complete.
		rn.drain(1e18)
	}
	return n
}

// step processes one invocation: drain due completions, recommend,
// account the counterfactual latencies, and schedule the observe.
func (rn *Runner) step() {
	ev := &rn.events[rn.next]
	rn.next++
	rn.now = ev.at
	rn.drain(ev.at)

	ctx := schema.Num(map[string]float64{
		workloads.ServerlessFeatureNames[0]: ev.payload,
		workloads.ServerlessFeatureNames[1]: ev.fanout,
	})
	tk, err := rn.svc.RecommendCtx(rn.names[ev.stream], ctx)
	if err != nil {
		rn.fail(fmt.Errorf("recommend %s: %w", rn.names[ev.stream], err))
		return
	}
	arms := len(rn.cfg.Hardware)
	lat := make([]float64, arms)
	service := make([]float64, arms)
	queue := make([]float64, arms)
	best, sum := 0, 0.0
	for a := 0; a < arms; a++ {
		service[a] = rn.serviceTime(ev, a)
		queue[a] = rn.queueDelay(ev.stream, a, ev.at) + rn.coldPenalty(ev.stream, a, ev.at)
		lat[a] = service[a] + queue[a]
		sum += lat[a]
		if lat[a] < lat[best] {
			best = a
		}
	}
	rn.account(ev, tk.Arm, best, lat, sum/float64(arms))
	if queue[tk.Arm] > rn.queueDelay(ev.stream, tk.Arm, ev.at) {
		rn.acct.coldStarts++
	}
	rn.lastUse[ev.stream*arms+tk.Arm] = ev.at

	heap.Push(&rn.comps, completion{
		at:     ev.at + lat[tk.Arm],
		ticket: tk.ID,
		stream: ev.stream,
		outcome: serve.Outcome{
			Runtime: service[tk.Arm],
			Metrics: map[string]float64{"queue_seconds": queue[tk.Arm]},
		},
	})
}

// serviceTime returns the observed (noisy) service time of ev on arm,
// including the flash slowdown when it applies.
func (rn *Runner) serviceTime(ev *event, arm int) float64 {
	t := workloads.ServerlessTruth(rn.cfg.Hardware[arm], ev.payload, ev.fanout)
	if rn.cfg.flashActive(ev.at) && rn.isFlash[ev.stream] && rn.flashA[arm] {
		t *= rn.cfg.FlashSlowdown
	}
	t *= ev.mult[arm]
	if t < 1e-3 {
		t = 1e-3
	}
	return t
}

// queueDelay returns the deterministic queueing delay of stream on arm
// at time t: an M/M/1-style delay curve over the tier's utilization,
// boosted on the flash arms for the crowding streams.
func (rn *Runner) queueDelay(stream, arm int, t float64) float64 {
	u := rn.baseU[arm]
	if rn.cfg.flashActive(t) && rn.isFlash[stream] && rn.flashA[arm] {
		u += rn.cfg.FlashUtilBoost
	}
	if u > 0.95 {
		u = 0.95
	}
	return rn.cfg.QueueScale * u * u / (1 - u)
}

// coldPenalty returns the tier's cold-start penalty when the stream has
// no warm instance on arm at time t.
func (rn *Runner) coldPenalty(stream, arm int, t float64) float64 {
	if t-rn.lastUse[stream*len(rn.cfg.Hardware)+arm] > rn.cfg.KeepAlive {
		return rn.cold[arm]
	}
	return 0
}

// account folds one decision into the run metrics.
func (rn *Runner) account(ev *event, chosen, best int, lat []float64, mean float64) {
	a := &rn.acct
	a.decisions++
	a.served[ev.stream] = true
	a.bandit += lat[chosen]
	a.oracle += lat[best]
	a.random += mean
	for arm, l := range lat {
		a.armTotals[arm] += l
	}
	ph := rn.phase(ev.at)
	a.phaseN[ph]++
	if chosen == best {
		a.phaseHit[ph]++
	}
	if ev.stream >= rn.cfg.Streams/2 {
		a.tailBandit += lat[chosen]
		a.tailRandom += mean
		a.tailN++
	}
	if a.decisions%rn.cfg.SampleEvery == 0 {
		a.curve = append(a.curve, CurvePoint{
			T:      ev.at,
			Bandit: a.bandit,
			Oracle: a.oracle,
			Random: a.random,
		})
	}
}

// phase maps a simulated time onto the three flash phases.
func (rn *Runner) phase(t float64) int {
	switch {
	case rn.cfg.FlashEnd <= rn.cfg.FlashStart || t < rn.cfg.FlashStart:
		return 0
	case t < rn.cfg.FlashEnd:
		return 1
	default:
		return 2
	}
}

// drain observes every in-flight invocation whose completion time has
// passed, and polls drift state for flash streams still awaiting their
// first detection.
func (rn *Runner) drain(until float64) {
	for len(rn.comps) > 0 && rn.comps[0].at <= until {
		c := heap.Pop(&rn.comps).(completion)
		if err := rn.svc.ObserveOutcome(c.ticket, c.outcome); err != nil {
			rn.fail(fmt.Errorf("observe %s: %w", c.ticket, err))
			continue
		}
		rn.acct.observes++
		if rn.isFlash[c.stream] && rn.acct.detectAt[c.stream] < 0 {
			if info, err := rn.svc.Drift(rn.names[c.stream]); err == nil && info.Detections > 0 {
				rn.acct.detectAt[c.stream] = c.at
			}
		}
	}
}

func (rn *Runner) fail(err error) {
	rn.acct.errs++
	if len(rn.acct.errSamples) < 5 {
		rn.acct.errSamples = append(rn.acct.errSamples, err.Error())
	}
}

// Run executes the whole scenario and returns its result.
func Run(cfg Config) (*Result, error) {
	rn, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	rn.Steps(-1)
	return rn.Result(), nil
}

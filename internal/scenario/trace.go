package scenario

import (
	"banditware/internal/loadgen"
	"banditware/internal/workloads"
)

// Trace converts the scenario's pre-drawn invocation sequence into a
// loadgen replay trace, so `bwload -scenario serverless` can push the
// same skewed, bursty fleet traffic through the standard load-driver
// targets (in-process service or the HTTP front-end) and report it in
// the stable JSON schema.
//
// The conversion necessarily flattens the feedback loop: loadgen
// observes a pre-sampled per-arm runtime instead of simulating queueing
// against live state, so each op's Runtimes carry the full end-to-end
// latency (service + queueing + a cold start whenever the stream went
// quiet for the keep-alive) the simulator would charge at that op's
// time. Arrival times carry the diurnal + flash-crowd pattern, so
// open-loop replay reproduces the burst.
func Trace(cfg Config) (*loadgen.Trace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rn := newShell(cfg)

	tr := &loadgen.Trace{
		Config: loadgen.TraceConfig{
			Seed:         cfg.Seed,
			App:          "serverless",
			Scenario:     "serverless",
			Streams:      cfg.Streams,
			Requests:     cfg.Requests,
			ZipfSkew:     cfg.ZipfSkew,
			ObserveRatio: 1,
			QPS:          float64(cfg.Requests) / cfg.Horizon,
		},
		FeatureNames: append([]string(nil), workloads.ServerlessFeatureNames...),
		Hardware:     cfg.Hardware,
		Schema:       loadgen.ContextSchema(workloads.ServerlessFeatureNames),
	}
	weights := loadgen.ZipfWeights(cfg.Streams, cfg.ZipfSkew)
	tr.Streams = make([]loadgen.StreamSpec, cfg.Streams)
	for i := range tr.Streams {
		tr.Streams[i] = loadgen.StreamSpec{Name: streamName(i), Weight: weights[i]}
	}

	arms := len(cfg.Hardware)
	tr.Ops = make([]loadgen.Op, len(rn.events))
	lastSeen := make([]float64, cfg.Streams*arms)
	for i := range lastSeen {
		lastSeen[i] = -1e18
	}
	for i := range rn.events {
		ev := &rn.events[i]
		op := loadgen.Op{
			Stream:   ev.stream,
			Features: []float64{ev.payload, ev.fanout},
			Observe:  true,
			Runtimes: make([]float64, arms),
			AtNanos:  int64(ev.at * 1e9),
		}
		for a := 0; a < arms; a++ {
			lat := rn.serviceTime(ev, a) + rn.queueDelay(ev.stream, a, ev.at)
			// Replay can't know which arm the target will pick, so warm
			// state is tracked per (stream, arm) on every arm as if it
			// were chosen — a deterministic upper-bound approximation of
			// the simulator's chosen-arm-only warming.
			if ev.at-lastSeen[ev.stream*arms+a] > cfg.KeepAlive {
				lat += rn.cold[a]
			}
			lastSeen[ev.stream*arms+a] = ev.at
			op.Runtimes[a] = lat
		}
		tr.Ops[i] = op
	}
	return tr, nil
}

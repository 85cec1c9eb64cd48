// Package scenario is the end-to-end serverless-fleet simulator: it
// drives a real serve.Service with a Zipf-skewed population of
// thousands of function streams over the tiered serverless hardware
// set, charging per-tier cold starts and queueing delay back through
// the queue_seconds outcome metric, under diurnal traffic and a
// flash-crowd burst that shifts the runtime distribution on the
// crowded tiers — the non-stationarity the drift machinery exists for.
//
// The simulator is deterministic under a seed: every random choice
// (arrival gaps, stream draws, invocation shapes, runtime noise) is
// pre-drawn into an event list before the run starts, so two runs with
// the same Config make byte-identical requests and differ only through
// the service's own decisions. That is what makes the acceptance
// invariants (regret margins, drift localization, tail service,
// snapshot equivalence) assertable as a test.
//
// Three consumers share this package: the tier-2 acceptance test
// (scenario_acceptance_test.go), `bwload -scenario serverless` (via
// Trace, which converts the event list into a loadgen replay trace),
// and the examples/serverless demo (via Runner and Result).
package scenario

import (
	"fmt"
	"math"

	"banditware/internal/hardware"
	"banditware/internal/loadgen"
	"banditware/internal/rng"
	"banditware/internal/serve"
)

// Config parameterises one scenario run. The zero value is not usable
// directly; NewRunner and Trace apply the documented defaults. Default()
// and Quick() are the two pinned presets.
type Config struct {
	// Seed drives every random draw. Same seed, same scenario.
	Seed uint64 `json:"seed"`
	// Streams is the fleet's function population (default 2000).
	// Stream 0 is the Zipf head.
	Streams int `json:"streams"`
	// Requests is the number of invocations simulated (default 100000).
	Requests int `json:"requests"`
	// ZipfSkew is the Zipf exponent of stream popularity (default 1.1).
	ZipfSkew float64 `json:"zipf_skew"`
	// Horizon is the simulated wall-clock span in seconds the requests
	// are spread over (default 7200). The arrival rate is
	// Requests/Horizon modulated by the diurnal cycle and flash crowd.
	Horizon float64 `json:"horizon_seconds"`

	// DiurnalPeriod and DiurnalDepth shape the sinusoidal arrival-rate
	// cycle: rate(t) ∝ 1 + depth·sin(2πt/period). Defaults 3600 and 0.5.
	DiurnalPeriod float64 `json:"diurnal_period_seconds"`
	DiurnalDepth  float64 `json:"diurnal_depth"`

	// Flash crowd: during [FlashStart, FlashEnd) the arrival rate
	// multiplies by FlashTraffic and FlashShare of arrivals are forced
	// onto the FlashStreams most popular streams, whose invocations on
	// the FlashArms tiers slow down by FlashSlowdown× and queue behind
	// FlashUtilBoost extra utilization (their warm pools thrash — the
	// contention is scoped to the crowding streams' own instances, so
	// drift must localize there). Defaults: window [4000, 4800), 4
	// streams, traffic ×2, share 0.5, slowdown 2.5, arms {2, 3}
	// (std-4c and large-8c), util boost +0.25. Setting FlashEnd ≤
	// FlashStart disables the flash crowd.
	FlashStart     float64 `json:"flash_start_seconds"`
	FlashEnd       float64 `json:"flash_end_seconds"`
	FlashStreams   int     `json:"flash_streams"`
	FlashTraffic   float64 `json:"flash_traffic"`
	FlashShare     float64 `json:"flash_share"`
	FlashSlowdown  float64 `json:"flash_slowdown"`
	FlashArms      []int   `json:"flash_arms"`
	FlashUtilBoost float64 `json:"flash_util_boost"`

	// QueueWeight is the λ of the streams' queue_weighted reward: how
	// many running seconds one queued second costs (default 1 — plain
	// end-to-end latency).
	QueueWeight float64 `json:"queue_weight"`
	// QueueScale scales the per-tier queueing delay curve
	// QueueScale·u²/(1−u) (default 0.5).
	QueueScale float64 `json:"queue_scale"`
	// KeepAlive is the warm-instance keep-alive in seconds: an
	// invocation pays the tier's cold-start penalty when the stream has
	// not used that tier within KeepAlive (default 900).
	KeepAlive float64 `json:"keep_alive_seconds"`
	// RelNoise is the multiplicative service-time noise (default 0.05).
	RelNoise float64 `json:"rel_noise"`

	// Policy selects the streams' decision policy (zero = Algorithm 1).
	Policy serve.PolicySpec `json:"policy"`
	// Adapt overrides the streams' adaptation spec. nil selects the
	// scenario default: exponential forgetting (factor 0.97) with
	// on-drift reset and a detector tuned for the fleet's latency scale.
	Adapt *serve.AdaptSpec `json:"adapt,omitempty"`
	// Hardware overrides the tier set (default
	// hardware.ServerlessDefault()).
	Hardware hardware.Set `json:"hardware,omitempty"`
	// SampleEvery is the cumulative-latency curve sampling stride in
	// decisions (default Requests/256, min 1).
	SampleEvery int `json:"sample_every,omitempty"`
}

// Default returns the pinned full-size scenario configuration the
// acceptance test runs: 2000 streams, 100k invocations over a
// simulated 2 h with one diurnal cycle and an 800 s flash crowd.
func Default(seed uint64) Config {
	return Config{Seed: seed}.withDefaults()
}

// Quick returns the pinned small configuration for CI smokes and the
// demo: 300 streams, 15k invocations over a simulated 30 min with a
// 300 s flash crowd. Same structure, ~1/7 the work.
func Quick(seed uint64) Config {
	return Config{
		Seed:          seed,
		Streams:       300,
		Requests:      15000,
		Horizon:       1800,
		DiurnalPeriod: 900,
		FlashStart:    800,
		FlashEnd:      1100,
		FlashStreams:  3,
	}.withDefaults()
}

func (c Config) withDefaults() Config {
	if c.Streams == 0 {
		c.Streams = 2000
	}
	if c.Requests == 0 {
		c.Requests = 100000
	}
	if c.ZipfSkew == 0 {
		c.ZipfSkew = 1.1
	}
	if c.Horizon == 0 {
		c.Horizon = 7200
	}
	if c.DiurnalPeriod == 0 {
		c.DiurnalPeriod = 3600
	}
	if c.DiurnalDepth == 0 {
		c.DiurnalDepth = 0.5
	}
	if c.FlashStart == 0 && c.FlashEnd == 0 {
		c.FlashStart, c.FlashEnd = 4000, 4800
	}
	if c.FlashStreams == 0 {
		c.FlashStreams = 4
	}
	if c.FlashTraffic == 0 {
		c.FlashTraffic = 2
	}
	if c.FlashShare == 0 {
		c.FlashShare = 0.5
	}
	if c.FlashSlowdown == 0 {
		c.FlashSlowdown = 2.5
	}
	if c.FlashArms == nil {
		c.FlashArms = []int{2, 3}
	}
	if c.FlashUtilBoost == 0 {
		c.FlashUtilBoost = 0.25
	}
	if c.QueueWeight == 0 {
		c.QueueWeight = 1
	}
	if c.QueueScale == 0 {
		c.QueueScale = 0.5
	}
	if c.KeepAlive == 0 {
		c.KeepAlive = 900
	}
	if c.RelNoise == 0 {
		c.RelNoise = 0.05
	}
	if c.Hardware == nil {
		c.Hardware = hardware.ServerlessDefault()
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = c.Requests / 256
		if c.SampleEvery < 1 {
			c.SampleEvery = 1
		}
	}
	return c
}

func (c Config) validate() error {
	if c.Streams < 1 {
		return fmt.Errorf("scenario: streams %d < 1", c.Streams)
	}
	if c.Requests < 1 {
		return fmt.Errorf("scenario: requests %d < 1", c.Requests)
	}
	if c.Horizon <= 0 || !isFinite(c.Horizon) {
		return fmt.Errorf("scenario: bad horizon %g", c.Horizon)
	}
	if c.ZipfSkew < 0 || !isFinite(c.ZipfSkew) {
		return fmt.Errorf("scenario: bad zipf skew %g", c.ZipfSkew)
	}
	if c.DiurnalDepth < 0 || c.DiurnalDepth >= 1 {
		return fmt.Errorf("scenario: diurnal depth %g outside [0, 1)", c.DiurnalDepth)
	}
	if c.DiurnalPeriod <= 0 {
		return fmt.Errorf("scenario: bad diurnal period %g", c.DiurnalPeriod)
	}
	if c.FlashStreams < 0 || c.FlashStreams > c.Streams {
		return fmt.Errorf("scenario: flash streams %d outside [0, %d]", c.FlashStreams, c.Streams)
	}
	if c.FlashShare < 0 || c.FlashShare > 1 {
		return fmt.Errorf("scenario: flash share %g outside [0, 1]", c.FlashShare)
	}
	if c.FlashTraffic <= 0 || c.FlashSlowdown <= 0 {
		return fmt.Errorf("scenario: flash traffic %g / slowdown %g must be positive", c.FlashTraffic, c.FlashSlowdown)
	}
	for _, a := range c.FlashArms {
		if a < 0 || a >= len(c.Hardware) {
			return fmt.Errorf("scenario: flash arm %d outside the %d-tier set", a, len(c.Hardware))
		}
	}
	if c.QueueWeight < 0 || c.QueueScale < 0 || c.KeepAlive < 0 || c.RelNoise < 0 {
		return fmt.Errorf("scenario: negative queue weight/scale, keep-alive, or noise")
	}
	return c.Hardware.Validate()
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// flashActive reports whether t falls in the flash-crowd window.
func (c Config) flashActive(t float64) bool {
	return c.FlashEnd > c.FlashStart && t >= c.FlashStart && t < c.FlashEnd
}

// diurnal returns the arrival-rate multiplier at simulated time t.
func (c Config) diurnal(t float64) float64 {
	return 1 + c.DiurnalDepth*math.Sin(2*math.Pi*t/c.DiurnalPeriod)
}

// profile is one stream's invocation-shape distribution: invocations
// draw payload/fan-out log-normally around the stream's means, so each
// stream has a stable "function identity" with a stable best tier.
type profile struct {
	payloadMean float64
	fanoutMean  float64
}

// event is one pre-drawn invocation: arrival time, stream, invocation
// shape, and one multiplicative noise factor per tier (pre-drawn so
// the observed service time is deterministic regardless of which tier
// the service picks).
type event struct {
	at      float64
	stream  int
	payload float64
	fanout  float64
	mult    []float64
}

// streamName formats the canonical stream registry name for rank i
// (shared with loadgen's population naming).
func streamName(i int) string { return fmt.Sprintf("s%04d", i) }

// buildProfiles draws the per-stream invocation shapes. The
// FlashStreams head streams get mid-to-large payloads and fan-outs so
// their best tier sits on the flash arms — the crowd must hit the tiers
// the scenario slows down.
func buildProfiles(cfg Config, r *rng.Source) []profile {
	profs := make([]profile, cfg.Streams)
	for i := range profs {
		if i < cfg.FlashStreams && cfg.FlashEnd > cfg.FlashStart {
			profs[i] = profile{
				payloadMean: r.Uniform(96, 256),
				fanoutMean:  r.Uniform(8, 16),
			}
			continue
		}
		// Log-uniform over the full fleet range: payload 4–384 MB,
		// fan-out 1–24, covering every tier's winning region.
		profs[i] = profile{
			payloadMean: 4 * math.Exp(r.Float64()*math.Log(96)),
			fanoutMean:  math.Exp(r.Float64() * math.Log(24)),
		}
	}
	return profs
}

// buildEvents pre-draws the whole invocation sequence. Arrivals are a
// non-homogeneous Poisson process (diurnal cycle, flash traffic
// multiplier); stream choice is Zipf with the flash share diverted to
// the flash streams inside the window.
func buildEvents(cfg Config, profs []profile, r *rng.Source) []event {
	weights := loadgen.ZipfWeights(cfg.Streams, cfg.ZipfSkew)
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w
		cum[i] = acc
	}
	baseRate := float64(cfg.Requests) / cfg.Horizon
	arms := len(cfg.Hardware)
	events := make([]event, cfg.Requests)
	multBacking := make([]float64, cfg.Requests*arms)
	var t float64
	for i := range events {
		rate := baseRate * cfg.diurnal(t)
		if cfg.flashActive(t) {
			rate *= cfg.FlashTraffic
		}
		t += r.Exp(rate)
		s := loadgen.SampleIndex(cum, r.Float64())
		if cfg.flashActive(t) && cfg.FlashStreams > 0 && r.Bernoulli(cfg.FlashShare) {
			s = r.Intn(cfg.FlashStreams)
		}
		p := profs[s]
		payload := clamp(p.payloadMean*math.Exp(r.Normal(0, 0.3)), 1, 1024)
		fanout := math.Max(1, math.Round(p.fanoutMean*math.Exp(r.Normal(0, 0.3))))
		mult := multBacking[i*arms : (i+1)*arms : (i+1)*arms]
		for a := range mult {
			m := 1 + cfg.RelNoise*r.Normal(0, 1)
			if m < 0.1 {
				m = 0.1
			}
			mult[a] = m
		}
		events[i] = event{at: t, stream: s, payload: payload, fanout: fanout, mult: mult}
	}
	return events
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// defaultAdapt is the scenario streams' adaptation spec when Config
// leaves Adapt nil: exponential forgetting so models track the regime,
// on-drift reset so crowded arms relearn quickly, and a Page-Hinkley
// detector tuned to the fleet's latency scale — sensitive enough to
// catch a multi-second shift inside the flash window, blunt enough
// that cold-start spikes and diurnal traffic never fire it.
func defaultAdapt() serve.AdaptSpec {
	return serve.AdaptSpec{
		Mode:            serve.AdaptForgetting,
		Factor:          0.97,
		OnDrift:         serve.DriftReset,
		DriftDelta:      0.1,
		DriftThreshold:  12,
		DriftMinSamples: 30,
		DriftWarmup:     25,
	}
}

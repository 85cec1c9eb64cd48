// Package reward defines the structured observation surface of the
// serving layer — the Outcome of one completed workflow run — and the
// pluggable reward functions that map an Outcome plus the chosen arm's
// hardware configuration to the scalar the decision engines learn from.
//
// The paper's central claim is not "pick the fastest hardware" but
// "pick hardware that is sufficiently good while wasting fewer
// resources": the learning signal trades measured runtime against the
// cost of the allocation. A bare runtime float cannot express that —
// nor SLO-aware or failure-aware serving — so the serving layer
// observes Outcomes and each stream declares a Spec choosing how an
// Outcome collapses to its scalar.
//
// Every built-in reward is runtime-denominated and lower-is-better
// (seconds, plus penalties expressed in seconds), matching the engines,
// which model and minimise the observed value:
//
//   - runtime: the measured runtime unchanged — the paper's Algorithm 1
//     signal and the default, so pre-Outcome callers behave identically.
//   - cost_weighted: runtime + λ·Cost(hw) — the paper's resource-waste
//     tradeoff made explicit in the signal itself; λ is seconds per
//     cost unit (hardware.Config.Cost: cpus + mem/4 + 10·gpus).
//   - deadline: runtime + penalty·max(0, runtime − deadline) — an SLO
//     with a graded miss penalty: hitting the deadline is scored by
//     runtime alone, every second past it costs (1 + penalty) seconds.
//   - failure_penalty: runtime + penalty when the run failed — failed
//     runs produce nothing, so arms that fail must look expensive even
//     when they fail fast.
//   - queue_weighted: runtime + λ·queue_seconds — end-to-end latency for
//     fleets where an allocation waits in a queue or pays a cold start
//     before it runs (the serverless scenario): the engine learns the
//     latency a client experiences, not just the execution time, so an
//     arm that runs fast but queues long loses to one that starts warm.
package reward

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"banditware/internal/hardware"
)

// Sentinel errors.
var (
	// ErrBadOutcome is wrapped by every Outcome validation error:
	// non-finite or negative runtime, unknown metric name, non-finite or
	// negative metric value. The HTTP layer maps it to 422.
	ErrBadOutcome = errors.New("reward: invalid outcome")
	// ErrBadSpec is wrapped by every Spec validation error: unknown
	// reward type, missing or non-finite parameter.
	ErrBadSpec = errors.New("reward: invalid reward spec")
)

// Canonical reward types accepted in Spec.Type.
const (
	TypeRuntime        = "runtime"
	TypeCostWeighted   = "cost_weighted"
	TypeDeadline       = "deadline"
	TypeFailurePenalty = "failure_penalty"
	TypeQueueWeighted  = "queue_weighted"
)

// Canonical metric names accepted in Outcome.Metrics. The set is closed
// so a typo ("memoryGB") fails loudly instead of being silently carried
// as a new metric nothing reads.
const (
	MetricMemoryGB     = "memory_gb"     // peak memory of the run, GiB
	MetricEnergyJoules = "energy_joules" // measured energy, J
	MetricCostUSD      = "cost_usd"      // measured monetary cost, USD
	MetricQueueSeconds = "queue_seconds" // time spent queued before the run
)

// KnownMetrics returns the accepted Outcome metric names, sorted.
func KnownMetrics() []string {
	return []string{MetricCostUSD, MetricEnergyJoules, MetricMemoryGB, MetricQueueSeconds}
}

func knownMetric(name string) bool {
	switch name {
	case MetricMemoryGB, MetricEnergyJoules, MetricCostUSD, MetricQueueSeconds:
		return true
	}
	return false
}

// Default parameter values filled in by Compile.
const (
	// DefaultLambda weights hardware cost in cost_weighted when λ is
	// unset: one cost unit (≈ one CPU) is worth one second of runtime.
	DefaultLambda = 1.0
	// DefaultDeadlinePenalty is the graded slope of a deadline miss:
	// every second past the deadline costs this many extra seconds.
	DefaultDeadlinePenalty = 10.0
	// DefaultFailurePenalty is the seconds-equivalent added to a failed
	// run's runtime, chosen large against typical workflow runtimes so a
	// fast-failing arm never looks attractive.
	DefaultFailurePenalty = 1000.0
	// DefaultQueueWeight weights queue_seconds in queue_weighted when λ
	// is unset: one queued second costs one running second — plain
	// end-to-end latency.
	DefaultQueueWeight = 1.0
)

// Outcome is the structured observation of one completed workflow run:
// the measured runtime plus optional success/failure and named metrics.
// The zero Metrics/Success fields reproduce the pre-Outcome scalar
// observation exactly, so Outcome{Runtime: rt} is the compatibility
// bridge for every old caller.
type Outcome struct {
	// Runtime is the measured wall-clock runtime in seconds. Must be
	// finite and non-negative.
	Runtime float64 `json:"runtime"`
	// Success reports whether the run completed successfully; nil means
	// "not reported" and is treated as success by every built-in reward.
	Success *bool `json:"success,omitempty"`
	// Metrics carries optional named measurements (see the Metric*
	// constants). Values must be finite and non-negative.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Failed reports whether the run was explicitly marked unsuccessful.
func (o Outcome) Failed() bool { return o.Success != nil && !*o.Success }

// Validate checks the outcome: finite non-negative runtime, known
// metric names, finite non-negative metric values. Every violation
// wraps ErrBadOutcome.
func (o Outcome) Validate() error {
	if math.IsNaN(o.Runtime) || math.IsInf(o.Runtime, 0) {
		return fmt.Errorf("%w: non-finite runtime", ErrBadOutcome)
	}
	if o.Runtime < 0 {
		return fmt.Errorf("%w: negative runtime %g", ErrBadOutcome, o.Runtime)
	}
	if len(o.Metrics) == 0 {
		return nil
	}
	// One pass, no allocation: the error names the lexicographically
	// smallest bad metric, so multi-metric errors are deterministic.
	bad, reason := "", ""
	for name, v := range o.Metrics {
		if bad != "" && name >= bad {
			continue
		}
		switch {
		case !knownMetric(name):
			bad, reason = name, "unknown"
		case math.IsNaN(v) || math.IsInf(v, 0):
			bad, reason = name, "non-finite"
		case v < 0:
			bad, reason = name, "negative"
		}
	}
	switch reason {
	case "unknown":
		return fmt.Errorf("%w: unknown metric %q (known: %s)",
			ErrBadOutcome, bad, strings.Join(KnownMetrics(), ", "))
	case "non-finite":
		return fmt.Errorf("%w: non-finite metric %q", ErrBadOutcome, bad)
	case "negative":
		return fmt.Errorf("%w: negative metric %q = %g", ErrBadOutcome, bad, o.Metrics[bad])
	}
	return nil
}

// Spec selects and parameterises a reward function. The zero value is
// the runtime reward (today's behaviour). In JSON a spec may be either
// a bare type string ("cost_weighted") or an object
// ({"type": "cost_weighted", "lambda": 0.5}).
//
// A zero parameter means "unset" and selects that parameter's default —
// the same convention as PolicySpec. A genuinely zero weight has no
// use: cost_weighted with λ = 0, or deadline/failure_penalty with
// penalty = 0, all degenerate to the runtime reward, so declare type
// "runtime" instead (or pass an arbitrarily small non-zero value).
type Spec struct {
	// Type is one of the Type* constants (aliases: "" means runtime,
	// "cost" means cost_weighted, "slo" means deadline, "failure" means
	// failure_penalty).
	Type string `json:"type,omitempty"`
	// Lambda is cost_weighted's cost weight in seconds per cost unit
	// (0 = DefaultLambda), and queue_weighted's queue weight in seconds
	// per queued second (0 = DefaultQueueWeight).
	Lambda float64 `json:"lambda,omitempty"`
	// DeadlineSeconds is deadline's SLO target; required (> 0) for that
	// type.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// Penalty grades a deadline miss (seconds per second late,
	// 0 = DefaultDeadlinePenalty) or prices a failure (seconds,
	// 0 = DefaultFailurePenalty).
	Penalty float64 `json:"penalty,omitempty"`
}

// UnmarshalJSON accepts either a bare reward-type string or the full
// object form, and rejects unknown object fields.
func (s *Spec) UnmarshalJSON(data []byte) error {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) > 0 && trimmed[0] == '"' {
		var t string
		if err := json.Unmarshal(trimmed, &t); err != nil {
			return err
		}
		*s = Spec{Type: t}
		return nil
	}
	type plain Spec // drops the custom unmarshaller
	var obj plain
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&obj); err != nil {
		return err
	}
	*s = Spec(obj)
	return nil
}

// kind canonicalises Type, resolving aliases.
func (s Spec) kind() (string, error) {
	switch strings.ToLower(strings.TrimSpace(s.Type)) {
	case "", TypeRuntime:
		return TypeRuntime, nil
	case TypeCostWeighted, "cost":
		return TypeCostWeighted, nil
	case TypeDeadline, "slo":
		return TypeDeadline, nil
	case TypeFailurePenalty, "failure":
		return TypeFailurePenalty, nil
	case TypeQueueWeighted, "queue", "latency":
		return TypeQueueWeighted, nil
	}
	return "", fmt.Errorf("%w: unknown reward type %q", ErrBadSpec, s.Type)
}

// IsDefault reports whether the canonical form of s is the runtime
// reward — the only param-free type, which snapshots therefore omit.
func (s Spec) IsDefault() bool {
	k, err := s.kind()
	return err == nil && k == TypeRuntime
}

// Func maps a validated Outcome and the hardware configuration the run
// executed on to the scalar the engine learns from (lower is better).
// Implementations must return a finite value for every valid Outcome.
type Func func(o Outcome, hw hardware.Config) float64

// Compile validates spec, fills parameter defaults, and returns the
// scoring function together with the canonical spec (resolved type,
// effective parameters, irrelevant parameters zeroed) that snapshots
// and StreamInfo report.
func Compile(spec Spec) (Func, Spec, error) {
	kind, err := spec.kind()
	if err != nil {
		return nil, Spec{}, err
	}
	finite := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%w: %s parameter %q must be finite and non-negative, got %g",
				ErrBadSpec, kind, name, v)
		}
		return nil
	}
	switch kind {
	case TypeRuntime:
		canonical := Spec{Type: TypeRuntime}
		return func(o Outcome, _ hardware.Config) float64 {
			return o.Runtime
		}, canonical, nil

	case TypeCostWeighted:
		if err := finite("lambda", spec.Lambda); err != nil {
			return nil, Spec{}, err
		}
		lambda := spec.Lambda
		if lambda == 0 {
			lambda = DefaultLambda
		}
		canonical := Spec{Type: TypeCostWeighted, Lambda: lambda}
		return func(o Outcome, hw hardware.Config) float64 {
			return o.Runtime + lambda*hw.Cost()
		}, canonical, nil

	case TypeDeadline:
		if err := finite("deadline_seconds", spec.DeadlineSeconds); err != nil {
			return nil, Spec{}, err
		}
		if spec.DeadlineSeconds == 0 {
			return nil, Spec{}, fmt.Errorf("%w: deadline reward needs deadline_seconds > 0", ErrBadSpec)
		}
		if err := finite("penalty", spec.Penalty); err != nil {
			return nil, Spec{}, err
		}
		deadline, penalty := spec.DeadlineSeconds, spec.Penalty
		if penalty == 0 {
			penalty = DefaultDeadlinePenalty
		}
		canonical := Spec{Type: TypeDeadline, DeadlineSeconds: deadline, Penalty: penalty}
		return func(o Outcome, _ hardware.Config) float64 {
			if o.Runtime <= deadline {
				return o.Runtime
			}
			return o.Runtime + penalty*(o.Runtime-deadline)
		}, canonical, nil

	case TypeFailurePenalty:
		if err := finite("penalty", spec.Penalty); err != nil {
			return nil, Spec{}, err
		}
		penalty := spec.Penalty
		if penalty == 0 {
			penalty = DefaultFailurePenalty
		}
		canonical := Spec{Type: TypeFailurePenalty, Penalty: penalty}
		return func(o Outcome, _ hardware.Config) float64 {
			if o.Failed() {
				return o.Runtime + penalty
			}
			return o.Runtime
		}, canonical, nil

	case TypeQueueWeighted:
		if err := finite("lambda", spec.Lambda); err != nil {
			return nil, Spec{}, err
		}
		lambda := spec.Lambda
		if lambda == 0 {
			lambda = DefaultQueueWeight
		}
		canonical := Spec{Type: TypeQueueWeighted, Lambda: lambda}
		return func(o Outcome, _ hardware.Config) float64 {
			// Outcomes without the metric queue for free: the zero read
			// reproduces the runtime reward exactly.
			return o.Runtime + lambda*o.Metrics[MetricQueueSeconds]
		}, canonical, nil
	}
	// kind() only returns the four cases above.
	return nil, Spec{}, fmt.Errorf("%w: %q", ErrBadSpec, kind)
}

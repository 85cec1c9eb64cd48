// Package banditware is an online hardware-recommendation library: the
// open-source reproduction of "BanditWare: A Contextual Bandit-based
// Framework for Hardware Prediction" (Coleman et al., HPDC 2025).
//
// BanditWare chooses the best-fitting hardware configuration for each
// incoming workflow using a decaying contextual ε-greedy multi-armed
// bandit (the paper's Algorithm 1). It assumes workflow runtime on
// hardware H_i is linear in the workflow's feature vector x,
//
//	R(H_i, x) = wᵢᵀx + bᵢ,
//
// learns the per-hardware coefficients online from observed runtimes, and
// balances exploration against exploitation with an exploration rate ε
// that decays by a factor α after every observation. Its exploitation
// step is tolerant: among all hardware whose predicted runtime is within
//
//	(1 + ToleranceRatio)·R̂_fastest + ToleranceSeconds
//
// it picks the most resource-efficient configuration, trading a bounded
// slowdown for smaller allocations.
//
// # Quick start
//
//	hw := banditware.HardwareSet{
//		{Name: "H0", CPUs: 2, MemoryGB: 16},
//		{Name: "H1", CPUs: 3, MemoryGB: 24},
//		{Name: "H2", CPUs: 4, MemoryGB: 16},
//	}
//	rec, err := banditware.New(hw, 1, banditware.Options{})
//	// per workflow:
//	d, _ := rec.Recommend([]float64{numTasks})
//	runtime := runWorkflow(hw[d.Arm])      // schedule it, measure it
//	_ = rec.Observe(d.Arm, []float64{numTasks}, runtime)
//
// Recommender is single-stream and not concurrency-safe. For serving —
// many applications, concurrent requests, recommendations issued long
// before their runtimes are observed — use Service: a sharded registry
// of named recommender streams with decision tickets, batch operations,
// whole-service snapshots, and an HTTP front-end (ServiceHandler,
// mounted by `banditware serve`; docs/API.md is the route reference).
//
// # Policy selection
//
// Streams are policy-agnostic: StreamConfig.Policy picks the decision
// policy per stream — the paper's Algorithm 1 by default, or LinUCB,
// linear Thompson sampling, fixed ε-greedy, greedy, softmax, and a
// uniform-random baseline (the paper's "more complex contextual bandit
// algorithms" future-work axis), all persisted through the same
// versioned snapshots:
//
//	_ = svc.CreateStream("matmul", banditware.StreamConfig{
//		Hardware: hw, Dim: 1,
//		Policy:   banditware.PolicySpec{Type: banditware.PolicyLinUCB, Beta: 1.5},
//	})
//
// A stream can additionally carry shadow policies (StreamConfig.Shadows
// at creation, Service.AttachShadow later) that see all traffic but
// never serve, accumulating agreement and regret counters — live A/B
// evaluation of a candidate policy before switching a stream over.
//
// # Feature schemas
//
// Positional feature vectors make the feature layout an implicit
// contract: a caller who reorders or mis-scales one feature silently
// corrupts every per-arm model. A stream can instead declare a Schema —
// ordered named fields, numeric (bounds, defaults, online min-max or
// z-score normalization) or categorical (one-hot) — and serve named
// contexts:
//
//	_ = svc.CreateStream("bp3d", banditware.StreamConfig{
//		Hardware: hw,
//		Schema: &banditware.Schema{Fields: []banditware.Field{
//			{Name: "num_tasks", Required: true},
//			{Name: "site", Kind: banditware.KindCategorical,
//				Categories: []string{"expanse", "nautilus"}},
//		}},
//	})
//	t, err := svc.RecommendCtx("bp3d", banditware.Context{
//		Numeric:     map[string]float64{"num_tasks": 200},
//		Categorical: map[string]string{"site": "expanse"},
//	})
//
// Malformed contexts fail with per-field errors wrapping
// ErrSchemaViolation (HTTP: 422 with a "fields" list), and schemas —
// including live normalization statistics — persist in service
// snapshots. Raw-vector calls keep working on every stream.
//
// # Structured outcomes and rewards
//
// The paper's goal is not the fastest hardware but hardware that is
// sufficiently good while wasting fewer resources. A stream can
// therefore learn from more than a bare runtime: observations are
// Outcomes (runtime plus optional success/failure and named metrics),
// and StreamConfig.Reward selects how an Outcome plus the chosen arm's
// hardware collapses to the scalar the engine learns from — runtime
// (the default), cost_weighted (runtime + λ·Cost(hw)), deadline
// (graded SLO penalty), or failure_penalty:
//
//	_ = svc.CreateStream("batch", banditware.StreamConfig{
//		Hardware: hw, Dim: 1,
//		Reward:   banditware.RewardSpec{Type: banditware.RewardCostWeighted, Lambda: 0.5},
//	})
//	t, _ := svc.Recommend("batch", []float64{200})
//	_ = svc.ObserveOutcome(t.ID, banditware.Outcome{
//		Runtime: 61.7,
//		Metrics: map[string]float64{"memory_gb": 3.2},
//	})
//
// Malformed outcomes (negative runtime, unknown metric) fail with
// ErrBadOutcome before the ticket is redeemed (HTTP: 422), scalar
// Observe calls map to the default Outcome, and per-stream reward and
// runtime totals surface in StreamInfo and /v1/stats so reward regimes
// can be compared live — including via shadows carrying their own
// RewardSpec.
//
// The internal packages implement every substrate the paper's evaluation
// needs (dataframes, linear algebra, workload generators, a cluster
// simulator, the experiment harness, the serving layer); see DESIGN.md
// for the inventory and cmd/bwbench for the per-figure reproduction
// runners.
package banditware

import (
	"io"

	"banditware/internal/core"
	"banditware/internal/hardware"
	"banditware/internal/regress"
	"banditware/internal/schema"
)

// Hardware describes one hardware configuration (a Kubernetes resource
// request in the paper's deployment): name, CPU cores, memory.
type Hardware = hardware.Config

// HardwareSet is an ordered set of hardware configurations; slice order
// is the bandit's arm order.
type HardwareSet = hardware.Set

// Options are the Algorithm 1 parameters. The zero value selects the
// paper's experimental settings (α = 0.99, ε₀ = 1, zero tolerances).
type Options = core.Options

// Decision records one recommendation: the chosen arm, whether it came
// from exploration, and the per-arm runtime predictions used.
type Decision = core.Decision

// Model is a learned linear runtime model for one hardware arm.
type Model = regress.Model

// Interval is a prediction interval for one arm.
type Interval = core.Interval

// ParseHardware parses "H0=2x16" / "(2,16)" style hardware descriptions.
func ParseHardware(s string) (Hardware, error) { return hardware.Parse(s) }

// ParseHardwareSet parses a semicolon- or space-separated hardware list,
// e.g. "H0=2x16;H1=3x24;H2=4x16".
func ParseHardwareSet(s string) (HardwareSet, error) { return hardware.ParseSet(s) }

// NDPHardware returns the paper's Experiment 2 hardware set from the
// National Data Platform: H0=(2,16), H1=(3,24), H2=(4,16).
func NDPHardware() HardwareSet { return hardware.NDPDefault() }

// Schema declares a stream's feature layout as ordered named fields —
// numeric (optional bounds, default, online min-max or z-score
// normalization) and categorical (one-hot expanded into the model
// dimension). Attach one via StreamConfig.Schema (or the "schema" field
// of the create document that POST /v1/streams and `banditware serve
// -create` read): the stream's dimension derives
// from it, contexts submitted through Service.RecommendCtx (or the
// HTTP {"context": {...}} and {"contexts": [...]} bodies) are validated and deterministically encoded against it, and its
// normalization statistics persist in service snapshots.
type Schema = schema.Schema

// Field is one named feature declaration inside a Schema.
type Field = schema.Field

// FieldStats is the online normalization state of one numeric field
// (count, range, Welford mean/M2), persisted with the schema.
type FieldStats = schema.FieldStats

// Context is one workflow's named feature values — numbers for numeric
// fields, strings for categorical ones. Over HTTP it is a single flat
// JSON object, e.g. {"num_tasks": 200, "site": "expanse"}.
type Context = schema.Context

// FieldError is one field-level schema violation (which field, why).
// It wraps ErrSchemaViolation.
type FieldError = schema.FieldError

// ValidationError aggregates every field-level violation of one context
// in deterministic order; errors.As it to enumerate Fields().
type ValidationError = schema.ValidationError

// Schema field kinds and normalization modes.
const (
	KindNumeric     = schema.KindNumeric
	KindCategorical = schema.KindCategorical
	NormMinMax      = schema.NormMinMax
	NormZScore      = schema.NormZScore
)

// Schema errors, re-exported for errors.Is checks.
var (
	// ErrSchemaViolation is wrapped by every field-level context
	// validation error; the HTTP layer maps it to 422 with a per-field
	// error list.
	ErrSchemaViolation = schema.ErrSchemaViolation
	// ErrInvalidSchema reports a malformed schema declaration.
	ErrInvalidSchema = schema.ErrInvalidSchema
)

// ParseSchema decodes and validates a schema from its JSON form (the
// "schema" field of the create document).
func ParseSchema(data []byte) (*Schema, error) { return schema.Parse(data) }

// IdentitySchema returns the schema equivalent of a bare
// dim-dimensional feature vector: required numeric fields x0..x{dim-1}.
// Streams created without a schema serve context calls through it.
func IdentitySchema(dim int) *Schema { return schema.Identity(dim) }

// NumericContext builds a purely numeric Context.
func NumericContext(values map[string]float64) Context { return schema.Num(values) }

// Recommender is the BanditWare online recommender (Algorithm 1). It is
// not safe for concurrent use; guard it with a mutex or shard per stream.
type Recommender struct {
	b *core.Bandit
}

// New constructs a recommender over the hardware set for workflows
// described by dim-dimensional feature vectors.
func New(hw HardwareSet, dim int, opts Options) (*Recommender, error) {
	b, err := core.New(hw, dim, opts)
	if err != nil {
		return nil, err
	}
	return &Recommender{b: b}, nil
}

// Recommend returns the hardware arm to run a workflow with the given
// features on. It consumes exploration randomness but does not learn;
// pair it with Observe.
func (r *Recommender) Recommend(features []float64) (Decision, error) {
	return r.b.Recommend(features)
}

// Observe records the measured runtime of a workflow on the given arm,
// refits that arm's model, and decays the exploration rate.
func (r *Recommender) Observe(arm int, features []float64, runtime float64) error {
	return r.b.Observe(arm, features, runtime)
}

// Step runs one full Algorithm 1 iteration: recommend, execute the
// workflow via run (which must return the measured runtime on the chosen
// arm), observe.
func (r *Recommender) Step(features []float64, run func(arm int) float64) (Decision, float64, error) {
	return r.b.Step(features, run)
}

// PredictAll returns the current runtime estimate for every arm.
func (r *Recommender) PredictAll(features []float64) ([]float64, error) {
	return r.b.PredictAll(features)
}

// PredictWithCI returns per-arm runtime estimates with approximate
// prediction intervals (z <= 0 selects 1.96 ≈ 95%). Arms that have not
// observed at least two runs report infinite intervals.
func (r *Recommender) PredictWithCI(features []float64, z float64) ([]Interval, error) {
	return r.b.PredictWithCI(features, z)
}

// Exploit returns the tolerant selection for the features without
// consuming exploration randomness — use it to serve read-only
// recommendations (dashboards, dry runs) that must not perturb learning.
func (r *Recommender) Exploit(features []float64) (int, error) {
	return r.b.Exploit(features)
}

// Model returns a snapshot of arm i's learned linear model.
func (r *Recommender) Model(i int) (Model, error) { return r.b.Model(i) }

// Hardware returns the arm set.
func (r *Recommender) Hardware() HardwareSet { return r.b.Hardware() }

// Epsilon returns the current exploration probability.
func (r *Recommender) Epsilon() float64 { return r.b.Epsilon() }

// Round returns how many observations the recommender has absorbed.
func (r *Recommender) Round() int { return r.b.Round() }

// Save serialises the recommender state (models, stored observations,
// exploration rate) as JSON.
func (r *Recommender) Save(w io.Writer) error { return r.b.SaveState(w) }

// Load restores a recommender serialised by Save.
func Load(rd io.Reader) (*Recommender, error) {
	b, err := core.LoadState(rd)
	if err != nil {
		return nil, err
	}
	return &Recommender{b: b}, nil
}

// TolerantSelect exposes Algorithm 1's exploitation rule for callers that
// manage their own models: among arms whose predicted runtime is within
// (1+tr)·min + ts, return the most resource-efficient.
func TolerantSelect(preds []float64, hw HardwareSet, tr, ts float64) int {
	return core.TolerantSelect(preds, hw, tr, ts)
}

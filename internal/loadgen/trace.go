// Package loadgen is the serving-path load generator: it synthesises
// Zipf-skewed multi-stream request traces from the internal/workloads
// generators and replays them against a serving target — the
// in-process Service or the HTTP front-end over a real socket — in
// closed-loop (fixed concurrency) or open-loop (target QPS, Poisson
// arrivals) mode, capturing per-request latency into streaming
// histograms. cmd/bwload is the CLI; the JSON report schema lives in
// report.go and the checked-in BENCH_serve_baseline.json records the
// first measured baseline.
//
// Everything is deterministic under a seed: the same TraceConfig
// always yields a byte-identical trace (stream population, context
// vectors, arrival times, pre-sampled per-arm runtimes), so perf PRs
// compare like against like.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"banditware/internal/hardware"
	"banditware/internal/rng"
	"banditware/internal/schema"
	"banditware/internal/workloads"
)

// TraceConfig parameterises trace generation. The zero value is not
// usable directly; Generate applies the documented defaults.
type TraceConfig struct {
	// Seed drives every random choice. Same seed, same trace.
	Seed uint64 `json:"seed"`
	// App selects the workload whose contexts and runtime ground truth
	// the trace draws from: "cycles" (default), "bp3d", "matmul", "llm",
	// "serverless".
	App string `json:"app"`
	// Scenario names the scenario the trace was derived from, when it
	// was built by internal/scenario rather than Generate ("" for plain
	// generated traces). Informational: it flows into the report so
	// scenario runs are distinguishable in the perf trajectory.
	Scenario string `json:"scenario,omitempty"`
	// Streams is the number of recommender streams in the population
	// (default 64). Stream 0 is the Zipf head.
	Streams int `json:"streams"`
	// Requests is the number of recommend requests (default 10000).
	// Observes ride along per ObserveRatio, so the total op count is
	// larger.
	Requests int `json:"requests"`
	// ZipfSkew is the Zipf exponent s of the stream popularity
	// distribution: P(stream i) ∝ 1/(i+1)^s. 0 means uniform;
	// the default is 1.1 (heavy head, long tail).
	ZipfSkew float64 `json:"zipf_skew"`
	// ObserveRatio is the fraction of recommends followed by an
	// observe redeeming the ticket (default 0.5).
	ObserveRatio float64 `json:"observe_ratio"`
	// QPS sets the open-loop arrival rate: request arrival offsets are
	// drawn from a Poisson process at this rate. 0 (the default) leaves
	// arrival times unset, which restricts replay to closed-loop mode.
	QPS float64 `json:"qps,omitempty"`
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.App == "" {
		c.App = "cycles"
	}
	if c.Streams == 0 {
		c.Streams = 64
	}
	if c.Requests == 0 {
		c.Requests = 10000
	}
	if c.ZipfSkew == 0 {
		c.ZipfSkew = 1.1
	}
	if c.ObserveRatio == 0 {
		c.ObserveRatio = 0.5
	}
	return c
}

func (c TraceConfig) validate() error {
	if c.Streams < 1 {
		return fmt.Errorf("loadgen: streams %d < 1", c.Streams)
	}
	if c.Requests < 1 {
		return fmt.Errorf("loadgen: requests %d < 1", c.Requests)
	}
	if c.ZipfSkew < 0 || math.IsNaN(c.ZipfSkew) || math.IsInf(c.ZipfSkew, 0) {
		return fmt.Errorf("loadgen: bad zipf skew %g", c.ZipfSkew)
	}
	if c.ObserveRatio < 0 || c.ObserveRatio > 1 || math.IsNaN(c.ObserveRatio) {
		return fmt.Errorf("loadgen: observe ratio %g outside [0, 1]", c.ObserveRatio)
	}
	if c.QPS < 0 || math.IsNaN(c.QPS) || math.IsInf(c.QPS, 0) {
		return fmt.Errorf("loadgen: bad qps %g", c.QPS)
	}
	return nil
}

// StreamSpec is one stream in the trace population.
type StreamSpec struct {
	// Name is the stream's registry name ("s0000", "s0001", ...).
	Name string `json:"name"`
	// Weight is the stream's Zipf probability mass.
	Weight float64 `json:"weight"`
}

// Op is one serving-path request: a recommend, optionally followed by
// an observe that redeems the returned ticket.
type Op struct {
	// Stream indexes into Trace.Streams.
	Stream int `json:"stream"`
	// Features is the context vector, ordered by Trace.FeatureNames.
	Features []float64 `json:"features"`
	// Observe marks recommends whose ticket is redeemed afterwards.
	Observe bool `json:"observe,omitempty"`
	// Runtimes holds one pre-sampled runtime per arm for the observe,
	// so the observed value tracks whichever arm the target picks at
	// replay time without breaking determinism.
	Runtimes []float64 `json:"runtimes,omitempty"`
	// AtNanos is the open-loop arrival offset from the run start, in
	// nanoseconds (0 throughout when the trace was generated without a
	// QPS).
	AtNanos int64 `json:"at_ns,omitempty"`
}

// Trace is a generated request trace plus the stream population it
// targets. All streams share the trace's app-derived feature layout and
// hardware set (they are independent recommender instances over the
// same workload family — the "many tenants, one application class"
// shape).
type Trace struct {
	Config       TraceConfig    `json:"config"`
	FeatureNames []string       `json:"feature_names"`
	Hardware     hardware.Set   `json:"hardware"`
	Schema       *schema.Schema `json:"schema"`
	Streams      []StreamSpec   `json:"streams"`
	Ops          []Op           `json:"ops"`
}

// Generate builds a deterministic trace from cfg.
func Generate(cfg TraceConfig) (*Trace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ds, err := generateDataset(cfg.App, cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	tr := &Trace{
		Config:       cfg,
		FeatureNames: ds.FeatureNames,
		Hardware:     ds.Hardware,
		Schema:       contextSchema(ds.FeatureNames),
	}

	// Stream population with Zipf(s) popularity over ranks.
	weights := zipfWeights(cfg.Streams, cfg.ZipfSkew)
	tr.Streams = make([]StreamSpec, cfg.Streams)
	for i := range tr.Streams {
		tr.Streams[i] = StreamSpec{Name: fmt.Sprintf("s%04d", i), Weight: weights[i]}
	}
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w
		cum[i] = acc
	}

	// One sequential source for the op stream keeps generation
	// order-stable: stream choice, context row, observe coin, runtime
	// noise, and arrival gap are drawn in a fixed per-op order.
	r := rng.New(cfg.Seed)
	var clock float64 // seconds
	tr.Ops = make([]Op, cfg.Requests)
	for i := range tr.Ops {
		op := Op{
			Stream: sampleIndex(cum, r.Float64()),
		}
		run := ds.Runs[r.Intn(len(ds.Runs))]
		op.Features = run.Features
		if r.Float64() < cfg.ObserveRatio {
			op.Observe = true
			op.Runtimes = make([]float64, len(ds.Hardware))
			for arm := range op.Runtimes {
				rt := ds.SampleRuntime(arm, run.Features, r)
				// Outcome validation rejects negative runtimes; the
				// generative noise can cross zero on fast arms.
				if rt < 1e-3 {
					rt = 1e-3
				}
				op.Runtimes[arm] = rt
			}
		}
		if cfg.QPS > 0 {
			clock += r.Exp(cfg.QPS)
			op.AtNanos = int64(clock * 1e9)
		}
		tr.Ops[i] = op
	}
	return tr, nil
}

// generateDataset builds the workload dataset the trace samples
// contexts and ground-truth runtimes from.
func generateDataset(app string, seed uint64) (*workloads.Dataset, error) {
	switch app {
	case "cycles":
		return workloads.GenerateCycles(workloads.CyclesOptions{Seed: seed})
	case "bp3d":
		return workloads.GenerateBP3D(workloads.BP3DOptions{Seed: seed})
	case "matmul":
		return workloads.GenerateMatMul(workloads.MatMulOptions{Seed: seed})
	case "llm":
		return workloads.GenerateLLM(workloads.LLMOptions{Seed: seed})
	case "serverless":
		return workloads.GenerateServerless(workloads.ServerlessOptions{Seed: seed})
	default:
		return nil, fmt.Errorf("loadgen: unknown app %q (want cycles, bp3d, matmul, llm, serverless)", app)
	}
}

// contextSchema declares the named feature layout the streams serve
// under: one required numeric field per workload feature, so every
// named-context request exercises schema validation and encoding.
func contextSchema(names []string) *schema.Schema {
	fields := make([]schema.Field, len(names))
	for i, n := range names {
		fields[i] = schema.Field{Name: n, Required: true}
	}
	return &schema.Schema{Fields: fields}
}

// zipfWeights returns the normalized Zipf(s) probability masses for n
// ranks: w_i ∝ 1/(i+1)^s.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// sampleIndex maps a uniform draw onto the cumulative weight array.
func sampleIndex(cum []float64, u float64) int {
	i := sort.SearchFloat64s(cum, u)
	if i >= len(cum) {
		i = len(cum) - 1
	}
	return i
}

// StreamCounts tallies how many ops target each stream.
func (t *Trace) StreamCounts() []int {
	counts := make([]int, len(t.Streams))
	for i := range t.Ops {
		counts[t.Ops[i].Stream]++
	}
	return counts
}

// EncodeJSON serialises the trace deterministically (stable field
// order, no map iteration), so equal traces are byte-identical.
func (t *Trace) EncodeJSON() ([]byte, error) {
	return json.Marshal(t)
}

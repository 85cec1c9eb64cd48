package loadgen

import (
	"bytes"
	"math"
	"testing"
)

// TestTraceDeterminism: same config, same bytes. The whole perf
// trajectory depends on this — two runs of bwload with the same seed
// must replay the identical trace.
func TestTraceDeterminism(t *testing.T) {
	cfg := TraceConfig{Seed: 42, App: "cycles", Streams: 32, Requests: 2000, ZipfSkew: 1.1, ObserveRatio: 0.5, QPS: 500}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("same seed produced different traces (%d vs %d bytes)", len(aj), len(bj))
	}

	// A different seed must actually change the trace.
	cfg.Seed = 43
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := c.EncodeJSON()
	if bytes.Equal(aj, cj) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestTraceShape pins the structural invariants every downstream
// consumer assumes.
func TestTraceShape(t *testing.T) {
	cfg := TraceConfig{Seed: 7, App: "cycles", Streams: 16, Requests: 3000, ZipfSkew: 1.2, ObserveRatio: 0.4, QPS: 1000}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Streams) != 16 || len(tr.Ops) != 3000 {
		t.Fatalf("got %d streams, %d ops", len(tr.Streams), len(tr.Ops))
	}
	if tr.Schema == nil || len(tr.Schema.Fields) != len(tr.FeatureNames) {
		t.Fatal("schema does not mirror the feature names")
	}
	observes := 0
	lastAt := int64(-1)
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Stream < 0 || op.Stream >= len(tr.Streams) {
			t.Fatalf("op %d references stream %d of %d", i, op.Stream, len(tr.Streams))
		}
		if len(op.Features) != len(tr.FeatureNames) {
			t.Fatalf("op %d has %d features, want %d", i, len(op.Features), len(tr.FeatureNames))
		}
		if op.Observe {
			observes++
			if len(op.Runtimes) != len(tr.Hardware) {
				t.Fatalf("op %d has %d runtimes, want one per arm (%d)", i, len(op.Runtimes), len(tr.Hardware))
			}
			for _, rt := range op.Runtimes {
				if rt <= 0 || math.IsNaN(rt) || math.IsInf(rt, 0) {
					t.Fatalf("op %d has invalid runtime %g", i, rt)
				}
			}
		} else if op.Runtimes != nil {
			t.Fatalf("op %d carries runtimes without observe", i)
		}
		if i > 0 && op.AtNanos < lastAt {
			t.Fatalf("op %d arrival %d before op %d arrival %d", i, op.AtNanos, i-1, lastAt)
		}
		lastAt = op.AtNanos
	}
	// Observe ratio within sampling tolerance of the configured 0.4.
	frac := float64(observes) / float64(len(tr.Ops))
	if math.Abs(frac-0.4) > 0.05 {
		t.Fatalf("observe fraction %.3f, want ~0.4", frac)
	}
}

// TestTraceZipfSkew checks the hot head / long tail split matches the
// configured skew: each stream's empirical share must track its
// analytic Zipf weight, and the head must dominate.
func TestTraceZipfSkew(t *testing.T) {
	const (
		streams  = 50
		requests = 200000
		skew     = 1.1
	)
	tr, err := Generate(TraceConfig{Seed: 5, Streams: streams, Requests: requests, ZipfSkew: skew, ObserveRatio: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	counts := tr.StreamCounts()
	weights := ZipfWeights(streams, skew)
	for i, w := range weights {
		got := float64(counts[i]) / requests
		// Binomial std error ~ sqrt(w/n); 5 sigma plus a small floor.
		tol := 5*math.Sqrt(w/requests) + 2e-4
		if math.Abs(got-w) > tol {
			t.Errorf("stream %d share %.5f, want %.5f ± %.5f", i, got, w, tol)
		}
	}
	// The head stream must dwarf the tail: rank 0 over rank 49 should
	// be about 50^1.1 ≈ 74x.
	headTail := float64(counts[0]) / math.Max(1, float64(counts[streams-1]))
	want := math.Pow(streams, skew)
	if headTail < want/2 || headTail > want*2 {
		t.Errorf("head/tail ratio %.1f, want within 2x of %.1f", headTail, want)
	}
}

// TestTraceUniformWhenUnskewed: skew < 0 is rejected, and explicit
// near-zero skew spreads load evenly.
func TestTraceUniformWhenUnskewed(t *testing.T) {
	if _, err := Generate(TraceConfig{Seed: 1, Streams: 4, Requests: 10, ZipfSkew: -1}); err == nil {
		t.Fatal("negative skew should be rejected")
	}
	tr, err := Generate(TraceConfig{Seed: 1, Streams: 10, Requests: 50000, ZipfSkew: 1e-12, ObserveRatio: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range tr.StreamCounts() {
		got := float64(c) / 50000
		if math.Abs(got-0.1) > 0.01 {
			t.Errorf("stream %d share %.4f, want ~0.1", i, got)
		}
	}
}

func TestTraceConfigValidation(t *testing.T) {
	bad := []TraceConfig{
		{Seed: 1, App: "nope"},
		{Seed: 1, Streams: -2},
		{Seed: 1, Requests: -1},
		{Seed: 1, ObserveRatio: 1.5},
		{Seed: 1, QPS: -3},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: want error for %+v", i, cfg)
		}
	}
}

// TestTraceApps: every supported workload generates a servable trace.
func TestTraceApps(t *testing.T) {
	for _, app := range []string{"cycles", "bp3d", "matmul", "llm"} {
		tr, err := Generate(TraceConfig{Seed: 3, App: app, Streams: 4, Requests: 50})
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if len(tr.FeatureNames) == 0 || len(tr.Hardware) == 0 {
			t.Fatalf("%s: empty feature names or hardware", app)
		}
	}
}

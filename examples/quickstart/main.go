// Quickstart: the smallest complete BanditWare loop, with named
// contexts and cost-aware rewards.
//
// Three hardware settings with different (unknown to the bandit) linear
// runtime models; workflows described by a declared feature schema —
// a numeric size and a categorical dataset kind that one-hot expands
// into the model. The program runs the online recommend → execute →
// observe loop for 300 workflows, shows a malformed context being
// rejected field by field, and prints the learned models against the
// ground truth. It closes with the reward pipeline: the same workload
// served once by raw runtime and once by the cost_weighted reward,
// which converges to cheaper hardware at a small runtime premium — the
// paper's "sufficiently good while wasting fewer resources" tradeoff.
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"log"

	"banditware"
	"banditware/internal/rng"
)

func main() {
	hw := banditware.HardwareSet{
		{Name: "small", CPUs: 2, MemoryGB: 16},
		{Name: "medium", CPUs: 4, MemoryGB: 24},
		{Name: "large", CPUs: 8, MemoryGB: 32},
	}
	// Ground truth the bandit has to discover:
	// runtime = slope·size + base (+ sparse penalty when the dataset is
	// sparse — small machines suffer most from the irregular access).
	slopes := []float64{8, 4, 2}
	bases := []float64{30, 90, 200}
	sparsePenalty := []float64{120, 60, 10}

	// The stream's feature layout, declared by name: submitting
	// {"size": ..., "dataset": ...} is the whole client contract — no
	// positional vectors to keep in sync.
	sch := &banditware.Schema{Fields: []banditware.Field{
		{Name: "size", Required: true, Min: fp(0), Max: fp(200)},
		{Name: "dataset", Kind: banditware.KindCategorical, Categories: []string{"dense", "sparse"}},
	}}

	svc := banditware.NewService(banditware.ServiceOptions{})
	if err := svc.CreateStream("quickstart", banditware.StreamConfig{
		Hardware: hw,
		Schema:   sch, // dim (1 numeric + 2 one-hot = 3) derives from the schema
		Options:  banditware.Options{Seed: 42},
	}); err != nil {
		log.Fatal(err)
	}

	r := rng.New(7)
	kinds := []string{"dense", "sparse"}
	for i := 0; i < 300; i++ {
		size := r.Uniform(5, 120)
		kind := kinds[int(r.Uniform(0, 2))]
		t, err := svc.RecommendCtx("quickstart", banditware.Context{
			Numeric:     map[string]float64{"size": size},
			Categorical: map[string]string{"dataset": kind},
		})
		if err != nil {
			log.Fatal(err)
		}
		// "Run" the workflow on the chosen hardware: the measured
		// runtime is the true model plus noise.
		runtime := slopes[t.Arm]*size + bases[t.Arm] + r.Normal(0, 5)
		if kind == "sparse" {
			runtime += sparsePenalty[t.Arm]
		}
		if err := svc.Observe(t.ID, runtime); err != nil {
			log.Fatal(err)
		}
	}

	// A malformed context never reaches the models — it fails with one
	// error per offending field.
	_, err := svc.RecommendCtx("quickstart", banditware.Context{
		Numeric:     map[string]float64{"size": 5000, "cores": 4},
		Categorical: map[string]string{"dataset": "wide"},
	})
	if errors.Is(err, banditware.ErrSchemaViolation) {
		var v *banditware.ValidationError
		errors.As(err, &v)
		fmt.Println("malformed context rejected:")
		for _, fe := range v.Fields() {
			fmt.Printf("  %-8s %s\n", fe.Field+":", fe.Reason)
		}
	}

	info, err := svc.StreamInfo("quickstart")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter %d workflows (epsilon now %.3f):\n\n", info.Round, info.Epsilon)
	fmt.Println("hardware     true model                     learned model")
	for i := range hw {
		m, err := svc.Model("quickstart", i)
		if err != nil {
			log.Fatal(err)
		}
		// Weights follow the schema's declared order: size, then the
		// dense/sparse one-hot block (whose difference is the penalty).
		fmt.Printf("%-12s %5.2f·size + %5.1f·sparse + %6.1f    %5.2f·size + %5.1f·sparse + %6.1f\n",
			hw[i].Name, slopes[i], sparsePenalty[i], bases[i],
			m.Weights[0], m.Weights[2]-m.Weights[1], m.Bias+m.Weights[1])
	}

	fmt.Println("\nrecommendations after learning (exploitation only):")
	for _, c := range []struct {
		size float64
		kind string
	}{{10, "dense"}, {40, "sparse"}, {100, "dense"}} {
		arm, err := svc.Exploit("quickstart", mustEncode(svc, c.size, c.kind))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %5.1f %-6s -> %s\n", c.size, c.kind, hw[arm].Name)
	}

	costAwareDemo(svc)
}

// costAwareDemo serves the same workload through two streams that see
// identical traffic but learn from different rewards: bare runtime vs
// cost_weighted (runtime + λ·Cost(hw)). The big machine is slightly
// faster, so the runtime stream picks it; the cost stream settles on
// the small one, trading a little runtime for a much smaller
// allocation.
func costAwareDemo(svc *banditware.Service) {
	hw := banditware.HardwareSet{
		{Name: "small", CPUs: 2, MemoryGB: 16},  // Cost 6
		{Name: "large", CPUs: 16, MemoryGB: 64}, // Cost 32
	}
	for name, rw := range map[string]banditware.RewardSpec{
		"by-runtime": {},
		"by-cost":    {Type: banditware.RewardCostWeighted, Lambda: 1},
	} {
		if err := svc.CreateStream(name, banditware.StreamConfig{
			Hardware: hw, Dim: 1,
			Options: banditware.Options{Seed: 9},
			Reward:  rw,
		}); err != nil {
			log.Fatal(err)
		}
	}
	r := rng.New(21)
	runtimes := []func(x float64) float64{
		func(x float64) float64 { return 52 + 0.1*x }, // small
		func(x float64) float64 { return 48 + 0.1*x }, // large: barely faster
	}
	for i := 0; i < 200; i++ {
		x := r.Uniform(5, 120)
		for _, name := range []string{"by-runtime", "by-cost"} {
			t, err := svc.Recommend(name, []float64{x})
			if err != nil {
				log.Fatal(err)
			}
			// Structured outcome: runtime plus a named metric; the
			// stream's reward collapses it to the learning signal.
			err = svc.ObserveOutcome(t.ID, banditware.Outcome{
				Runtime: runtimes[t.Arm](x) + r.Normal(0, 2),
				Metrics: map[string]float64{"memory_gb": 2 + x/40},
			})
			if err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Println("\ncost-aware serving (same workload, two reward regimes):")
	for _, name := range []string{"by-runtime", "by-cost"} {
		arm, err := svc.Exploit(name, []float64{60})
		if err != nil {
			log.Fatal(err)
		}
		info, err := svc.StreamInfo(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s (reward %-13s) -> %-5s  mean runtime %.1fs, cumulative reward %.0f\n",
			name, info.Reward.Type, hw[arm].Name,
			info.RuntimeTotal/float64(info.Observed), info.RewardTotal)
	}
}

// mustEncode builds the model-space vector for an exploit query using
// the stream's own schema (Exploit takes raw vectors; RecommendCtx and
// the HTTP "context" bodies encode internally).
func mustEncode(svc *banditware.Service, size float64, kind string) []float64 {
	info, err := svc.StreamInfo("quickstart")
	if err != nil {
		log.Fatal(err)
	}
	x, err := info.Schema.Encode(banditware.Context{
		Numeric:     map[string]float64{"size": size},
		Categorical: map[string]string{"dataset": kind},
	})
	if err != nil {
		log.Fatal(err)
	}
	return x
}

func fp(v float64) *float64 { return &v }

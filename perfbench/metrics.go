package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"recommend_p50_us", "us", "lower", 0.25},
	{"recommend_p99_us", "us", "lower", 0.25},
	{"observe_p50_us", "us", "lower", 0.25},
	{"observe_p99_us", "us", "lower", 0.25},
	{"within_limit_share", "fraction", "higher", 0.1},
	{"success_share", "fraction", "higher", 0.01},
	{"regret_ratio", "fraction", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.1},
}

// policies are the seven PolicySpec types, in the order inproc-policies
// assigns them to streams (stream i serves policies[i%7]).
var policies = []string{"algorithm1", "linucb", "lints", "eps-greedy", "greedy", "softmax", "random"}

// perLayer lists the metrics a traced run reports. NOTES.md says which
// end-to-end metric each should move, on which workload.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("us", "lower", "serve.recommend_us.p50", "serve.recommend_us.p99",
		"serve.observe_us.p50", "serve.observe_us.p99")
	for _, p := range policies {
		add("us", "lower", "serve.recommend_us."+p+".p50", "serve.observe_us."+p+".p50")
	}
	add("count", "higher", "serve.issued", "serve.observed")
	add("count", "lower", "serve.evicted")
	add("fraction", "higher", "serve.redeem_ratio")
	add("fraction", "lower", "serve.explore_share")
	add("us", "lower", "http.recommend_handler_us.p50", "http.recommend_handler_us.p99",
		"http.observe_handler_us.p50", "http.observe_handler_us.p99",
		"http.client_overhead_us.p50",
		"http.stats_scrape_us.p50", "http.stats_scrape_us.p99",
		"http.slot_wait_us.p50", "http.slot_wait_us.p99")
	add("count", "lower", "http.non2xx")
	add("ns", "lower", "schema.encode_ns.p50")
	for _, p := range policies {
		add("ns", "lower", "engine.select_ns."+p+".p50", "engine.update_ns."+p+".p50")
	}
	add("ns", "lower", "reward.score_ns.p50", "drift.add_ns.p50")
	add("us", "lower", "dist.router_hop_us.recommend.p50", "dist.router_hop_us.recommend.p99",
		"dist.router_hop_us.observe.p50", "dist.router_hop_us.observe.p99",
		"dist.replica_handler_us.recommend.p50", "dist.replica_handler_us.observe.p50")
	add("count", "higher", "dist.sync.deltas")
	add("bytes", "lower", "dist.sync.delta_bytes.p50")
	add("us", "lower", "dist.sync.apply_us.p50", "dist.sync.apply_us.p99")
	add("count", "lower", "dist.sync.failures", "dist.proxy_errors")
	add("allocs/op", "lower", "runtime.allocs_per_op")
	add("B/op", "lower", "runtime.bytes_per_op")
	add("count", "lower", "runtime.gc_cycles")
	add("ms", "lower", "runtime.gc_pause_ms")
	add("us", "lower", "bench.gen_late_us.p99")
	add("fraction", "lower", "bench.trace_overhead")
	return d
}()

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchResult is the last line the benchmark prints.
type benchResult struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect pairs every def with its value; a def without a value, or a
// value without a def, is a bug in the benchmark.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		for n := range vals {
			if _, ok := out[n]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", n)
			}
		}
	}
	return out, nil
}

// printTable writes one human-readable line per metric, with the sample
// count behind it where there is one.
func printTable(w io.Writer, title string, defs []metricDef, vals map[string]float64, samples map[string]uint64) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-40s %16.6g %-10s", d.Name, v, d.Unit)
		if n, ok := samples[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

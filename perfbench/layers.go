package main

import (
	"fmt"
	"math"
	"time"

	"banditware/internal/core"
	"banditware/internal/drift"
	"banditware/internal/hardware"
	"banditware/internal/loadgen"
	"banditware/internal/policy"
	"banditware/internal/reward"
	"banditware/internal/schema"
)

// pathTolerance is how far the sum of the median self times along a
// request's blocking path may sit from the median end-to-end span, as a
// share of the latter. Medians of parts do not add up exactly to the
// median of the whole, so the check bounds the gap rather than
// requiring equality.
const pathTolerance = 0.25

// layerFromSpans derives the per-layer timings of the traced phase from
// its spans, and checks that each request kind's blocking path adds up.
func layerFromSpans(out *runOutput, vals map[string]float64, samples map[string]uint64) []check {
	self := selfTimes(out.spans)
	durs := map[spanName][]int64{}
	selfs := map[spanName][]int64{}
	var byPolicy [numSpanNames][maxGroups][]int64
	var deltaBytes []int64
	// A request's kind comes from its root span.
	kind := map[uint64]string{}
	for _, s := range out.spans {
		if s.Parent == 0 && s.Start >= out.spanBase {
			switch s.Name {
			case spanRecommend, spanServeRecommend, spanClientRecommend:
				kind[s.Req] = "recommend"
			case spanServeObserve, spanClientObserve:
				kind[s.Req] = "observe"
			}
		}
	}
	type pathKey struct {
		kind string
		name spanName
	}
	pathSelf := map[pathKey][]int64{}
	roots := map[string][]int64{}
	for i, s := range out.spans {
		if s.Start < out.spanBase {
			continue
		}
		durs[s.Name] = append(durs[s.Name], s.dur())
		selfs[s.Name] = append(selfs[s.Name], self[i])
		byPolicy[s.Name][s.Tag] = append(byPolicy[s.Name][s.Tag], s.dur())
		if s.Name == spanDeltaApply {
			deltaBytes = append(deltaBytes, s.Val)
		}
		if k, ok := kind[s.Req]; ok {
			pathSelf[pathKey{k, s.Name}] = append(pathSelf[pathKey{k, s.Name}], self[i])
			if s.Parent == 0 {
				roots[k] = append(roots[k], s.dur())
			}
		}
	}
	set := func(name string, v []int64, q, scale float64) {
		vals[name] = quantile(v, q) / scale
		samples[name] = uint64(len(v))
	}
	us := func(name string, v []int64, q float64) { set(name, v, q, 1e3) }
	join := func(a, b []int64) []int64 { return append(append([]int64(nil), a...), b...) }

	us("serve.recommend_us.p50", durs[spanServeRecommend], 0.5)
	us("serve.recommend_us.p99", durs[spanServeRecommend], 0.99)
	us("serve.observe_us.p50", durs[spanServeObserve], 0.5)
	us("serve.observe_us.p99", durs[spanServeObserve], 0.99)
	for i, p := range policies {
		us("serve.recommend_us."+p+".p50", byPolicy[spanServeRecommend][i], 0.5)
		us("serve.observe_us."+p+".p50", byPolicy[spanServeObserve][i], 0.5)
	}
	// The serve HTTP handler is wrapped directly on http-open and sits
	// behind the replica mux on the fleet.
	recH := join(durs[spanHTTPRecommend], durs[spanReplicaRecommend])
	obsH := join(durs[spanHTTPObserve], durs[spanReplicaObserve])
	us("http.recommend_handler_us.p50", recH, 0.5)
	us("http.recommend_handler_us.p99", recH, 0.99)
	us("http.observe_handler_us.p50", obsH, 0.5)
	us("http.observe_handler_us.p99", obsH, 0.99)
	us("http.client_overhead_us.p50", join(selfs[spanClientRecommend], selfs[spanClientObserve]), 0.5)
	us("http.stats_scrape_us.p50", durs[spanScrape], 0.5)
	us("http.stats_scrape_us.p99", durs[spanScrape], 0.99)
	us("http.slot_wait_us.p50", durs[spanSlotWait], 0.5)
	us("http.slot_wait_us.p99", durs[spanSlotWait], 0.99)
	us("dist.router_hop_us.recommend.p50", selfs[spanRouterRecommend], 0.5)
	us("dist.router_hop_us.recommend.p99", selfs[spanRouterRecommend], 0.99)
	us("dist.router_hop_us.observe.p50", selfs[spanRouterObserve], 0.5)
	us("dist.router_hop_us.observe.p99", selfs[spanRouterObserve], 0.99)
	us("dist.replica_handler_us.recommend.p50", durs[spanReplicaRecommend], 0.5)
	us("dist.replica_handler_us.observe.p50", durs[spanReplicaObserve], 0.5)
	vals["dist.sync.deltas"] = float64(len(deltaBytes))
	set("dist.sync.delta_bytes.p50", deltaBytes, 0.5, 1)
	us("dist.sync.apply_us.p50", durs[spanDeltaApply], 0.5)
	us("dist.sync.apply_us.p99", durs[spanDeltaApply], 0.99)

	var checks []check
	for _, k := range []string{"recommend", "observe"} {
		if len(roots[k]) == 0 {
			continue
		}
		sum := 0.0
		parts := ""
		for n := spanName(1); n < numSpanNames; n++ {
			if v := pathSelf[pathKey{k, n}]; len(v) > 0 {
				m := median64(v)
				sum += m
				parts += fmt.Sprintf(" %s=%.1fus", n, m/1e3)
			}
		}
		whole := median64(roots[k])
		ratio := sum / whole
		checks = append(checks, checkf(fmt.Sprintf("%s blocking path adds up", k),
			math.Abs(ratio-1) <= pathTolerance,
			"sum of median self times %.1fus vs median span %.1fus (ratio %.3f, tolerance %.2f):%s",
			sum/1e3, whole/1e3, ratio, pathTolerance, parts))
	}
	return checks
}

func median64(v []int64) float64 { return quantile(v, 0.5) }

// sink keeps the replayed calls' results live.
var sink float64

// replayEngine is one policy engine driven through its public functions.
type replayEngine struct {
	sel func(x []float64) (int, error)
	upd func(arm int, x []float64, runtime float64) error
}

// newReplayEngine builds a policy engine the way a serving stream does:
// core.New for Algorithm 1 and the internal/policy constructors with the
// serving defaults for the rest.
func newReplayEngine(kind string, hw hardware.Set, dim int, seed uint64) (replayEngine, error) {
	n := len(hw)
	var p policy.Policy
	var err error
	switch kind {
	case "algorithm1":
		b, err := core.New(hw, dim, core.Options{Seed: seed})
		if err != nil {
			return replayEngine{}, err
		}
		var d core.Decision
		return replayEngine{func(x []float64) (int, error) {
			err := b.RecommendInto(x, &d)
			return d.Arm, err
		}, b.Observe}, nil
	case "linucb":
		p, err = policy.NewLinUCB(n, dim, 1)
	case "lints":
		p, err = policy.NewLinTS(n, dim, 1, seed)
	case "eps-greedy":
		p, err = policy.NewFixedEpsilonGreedy(n, dim, 0.1, seed)
	case "greedy":
		p, err = policy.NewGreedy(n, dim)
	case "softmax":
		p, err = policy.NewSoftmax(n, dim, 1, seed)
	case "random":
		p, err = policy.NewRandom(n, dim, seed)
	default:
		err = fmt.Errorf("unknown policy %q", kind)
	}
	if err != nil {
		return replayEngine{}, err
	}
	return replayEngine{p.Select, p.Update}, nil
}

// batchNS times fn over n consecutive calls and returns ns per call.
func batchNS(n int, fn func(k int)) float64 {
	t0 := time.Now()
	for k := 0; k < n; k++ {
		fn(k)
	}
	return float64(time.Since(t0)) / float64(n)
}

// layerReplays times the schema, engine, reward and drift layers by
// replaying the run's recorded decisions through their public
// functions, in batches so the clock's cost stays out of nanosecond
// calls. Each metric is the median over batches of the per-call time.
func layerReplays(tr *loadgen.Trace, seq []decision, seed uint64, vals map[string]float64, samples map[string]uint64) error {
	if len(seq) == 0 {
		return fmt.Errorf("no recorded decisions to replay")
	}
	set := func(name string, v []float64) {
		vals[name] = median(v)
		samples[name] = uint64(len(v))
	}
	ctxs := make([]schema.Context, len(seq))
	for i, d := range seq {
		m := make(map[string]float64, len(tr.FeatureNames))
		for j, n := range tr.FeatureNames {
			m[n] = d.x[j]
		}
		ctxs[i] = schema.Num(m)
	}
	enc := tr.Schema.Clone().Compile()
	xs := make([][]float64, len(seq))
	for i := range ctxs {
		x, err := enc.EncodeInto(ctxs[i], nil)
		if err != nil {
			return fmt.Errorf("encode: %w", err)
		}
		xs[i] = x
	}

	const encBatch = 64
	var buf []float64
	var times []float64
	for b := 0; b+encBatch <= len(ctxs); b += encBatch {
		times = append(times, batchNS(encBatch, func(k int) {
			buf, _ = enc.EncodeInto(ctxs[b+k], buf[:0])
		}))
	}
	set("schema.encode_ns.p50", times)

	const engBatch = 32
	for _, p := range policies {
		eng, err := newReplayEngine(p, tr.Hardware, len(xs[0]), seed)
		if err != nil {
			return err
		}
		var sel, upd []float64
		var callErr error
		for b := 0; b+engBatch <= len(seq); b += engBatch {
			sel = append(sel, batchNS(engBatch, func(k int) {
				arm, err := eng.sel(xs[b+k])
				sink += float64(arm)
				if err != nil && callErr == nil {
					callErr = err
				}
			}))
			upd = append(upd, batchNS(engBatch, func(k int) {
				d := seq[b+k]
				if err := eng.upd(d.arm, xs[b+k], d.runtime); err != nil && callErr == nil {
					callErr = err
				}
			}))
		}
		if callErr != nil {
			return fmt.Errorf("replay %s: %w", p, callErr)
		}
		set("engine.select_ns."+p+".p50", sel)
		set("engine.update_ns."+p+".p50", upd)
	}

	score, _, err := reward.Compile(reward.Spec{})
	if err != nil {
		return err
	}
	det, err := drift.New(drift.Config{})
	if err != nil {
		return err
	}
	mean := 0.0
	for _, d := range seq {
		mean += d.runtime / float64(len(seq))
	}
	const scalarBatch = 256
	var rw, dr []float64
	for rep := 0; rep < 4; rep++ {
		for b := 0; b+scalarBatch <= len(seq); b += scalarBatch {
			rw = append(rw, batchNS(scalarBatch, func(k int) {
				d := seq[b+k]
				sink += score(reward.Outcome{Runtime: d.runtime}, tr.Hardware[d.arm])
			}))
			dr = append(dr, batchNS(scalarBatch, func(k int) {
				if det.Add(seq[b+k].runtime - mean) {
					sink++
				}
			}))
		}
	}
	set("reward.score_ns.p50", rw)
	set("drift.add_ns.p50", dr)
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"banditware/internal/core"
	"banditware/internal/loadgen"
	"banditware/internal/schema"
	"banditware/internal/serve"
)

// inproc-policies: a closed loop on an in-process serve.Service through
// the zero-allocation API, with every policy engine on the path.
const (
	inprocStreams = 64
	inprocObserve = 0.5
	inprocLimit   = 20 * time.Microsecond
	inprocOps     = 1 << 18 // trace length; the loop cycles through it
	// inprocStride is the trace stride base (see traceStride).
	inprocStride = 64
	// inprocRegretSessions is how many sessions from the start of the run
	// regret_ratio covers; a slow run still gets through them in its first
	// seconds.
	inprocRegretSessions = 2_000_000
	// inprocSetupRepeats: a build takes about half a millisecond, so 101
	// of them, setupGap apart, span about a second.
	inprocSetupRepeats = 101
)

func runInproc(rc runConfig) (*runOutput, error) {
	tr, err := generate(loadgen.TraceConfig{Seed: rc.seed, App: "cycles",
		Streams: inprocStreams, Requests: inprocOps, ZipfSkew: 1.1, ObserveRatio: inprocObserve})
	if err != nil {
		return nil, err
	}
	out := &runOutput{trace: tr, layer: map[string]float64{}}
	sched := rc.schedule()
	ws := newWorkers(rc, sched, len(tr.Streams))
	var spans *spanBuf
	stride := traceStride(inprocStride, sched.measure)
	if rc.traced {
		spans = newSpanBuf(spanCap)
	}
	heap0 := liveHeap()
	var svc *serve.Service
	out.setup, err = repeatSetup(inprocSetupRepeats, func(last bool) (time.Duration, error) {
		t0 := time.Now()
		s := serve.NewService(serve.ServiceOptions{})
		for i, st := range tr.Streams {
			seed := streamSeed(rc.seed, i)
			cfg := serve.StreamConfig{Hardware: tr.Hardware, Schema: tr.Schema.Clone(),
				Options: core.Options{Seed: seed},
				Policy:  serve.PolicySpec{Type: policies[i%len(policies)], Seed: seed}}
			if err := s.CreateStream(st.Name, cfg); err != nil {
				return 0, fmt.Errorf("create stream %s: %w", st.Name, err)
			}
		}
		d := time.Since(t0)
		if last {
			svc = s
		} else {
			s.Close()
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	sched.start = time.Now()
	mem := watchMem(sched)
	sw := watchSteal(sched)
	runClosed(ws, func(w *worker, idx int) {
		var tk serve.Ticket
		ctx := schema.Context{Numeric: make(map[string]float64, len(tr.FeatureNames))}
		for i := idx; ; i += len(ws) {
			now := time.Now()
			ph, win := sched.at(now)
			if ph == sched.phases {
				return
			}
			op := &tr.Ops[i%len(tr.Ops)]
			for j, n := range tr.FeatureNames {
				ctx.Numeric[n] = op.Features[j]
			}
			name := tr.Streams[op.Stream].Name
			group := op.Stream % len(policies)
			traced := w.sample(stride) && ph == 1

			t0 := time.Now()
			err := svc.RecommendCtxInto(name, ctx, &tk)
			t1 := time.Now()
			if ph >= 0 {
				w.ph[ph].recommend(win, t1.Sub(t0), err == nil, inprocLimit)
			}
			if err != nil {
				w.fail(err)
				continue
			}
			w.recOK[op.Stream]++
			w.recs++
			if tk.Explored {
				w.explored++
			}
			if traced {
				spans.put(spans.open(), span{Start: spans.at(t0), End: spans.at(t1), Req: w.reqID(),
					Name: spanServeRecommend, Tag: uint8(group)})
			}
			if !op.Observe {
				continue
			}
			t2 := time.Now()
			err = svc.ObserveSeq(name, tk.Seq, op.Runtimes[tk.Arm])
			t3 := time.Now()
			if ph >= 0 {
				w.ph[ph].observe(win, t3.Sub(t2), err == nil)
			}
			if err != nil {
				w.fail(err)
				continue
			}
			w.obsOK[op.Stream]++
			w.redeemed(i, inprocRegretSessions, group, op.Features, op.Runtimes, tk.Arm)
			if traced {
				spans.put(spans.open(), span{Start: spans.at(t2), End: spans.at(t3), Req: w.reqID(),
					Name: spanServeObserve, Tag: uint8(group)})
			}
		}
	})
	out.mem = mem.wait()
	steal := sw.wait()
	out.heapMB = float64(liveHeap()-heap0) / (1 << 20)
	out.merged = mergeWorkers(ws)
	for p := range out.merged.phases {
		out.phases = append(out.phases, summarize(out.merged.phases[p], sched.measure, &steal[p], true))
	}
	if spans != nil {
		out.spans, out.spanBase, out.dropped = spans.recorded(), spans.at(sched.phaseStart(1)), spans.dropped.Load()
	}

	out.checks = append(out.checks, reconcile(tr, out.merged, svc.StreamInfo)...)
	out.checks = append(out.checks, policyRegretCheck(&out.merged.regret), saveLoadCheck(svc))
	issued, observed, evicted, err := streamTotals(tr, svc.StreamInfo)
	if err != nil {
		return nil, err
	}
	out.serveCounts(issued, observed, evicted)
	return out, nil
}

// streamTotals sums a service's issued, observed and evicted counters
// over the trace's streams.
func streamTotals(tr *loadgen.Trace, info func(string) (serve.StreamInfo, error)) (issued, observed, evicted uint64, err error) {
	for _, st := range tr.Streams {
		in, err := info(st.Name)
		if err != nil {
			return 0, 0, 0, err
		}
		issued += in.Issued
		observed += in.Observed
		evicted += in.Evicted
	}
	return issued, observed, evicted, nil
}

// reconcile checks that every stream's issued and observed counters
// equal the driver's own success counts.
func reconcile(tr *loadgen.Trace, m merged, info func(string) (serve.StreamInfo, error)) []check {
	bad := 0
	detail := ""
	for i, st := range tr.Streams {
		in, err := info(st.Name)
		if err != nil {
			return []check{checkf("stream counters reconcile", false, "%s: %v", st.Name, err)}
		}
		if in.Issued != m.recOK[i] || in.Observed != m.obsOK[i] {
			if bad == 0 {
				detail = fmt.Sprintf("%s: issued %d observed %d, driver saw %d and %d",
					st.Name, in.Issued, in.Observed, m.recOK[i], m.obsOK[i])
			}
			bad++
		}
	}
	if bad == 0 {
		detail = fmt.Sprintf("%d streams", len(tr.Streams))
	} else {
		detail = fmt.Sprintf("%d streams differ; first: %s", bad, detail)
	}
	return []check{checkf("stream counters reconcile", bad == 0, "%s", detail)}
}

// policyRegretCheck requires every learning policy to choose better than
// the random policy.
func policyRegretCheck(g *regretGroups) check {
	random := g[len(policies)-1].ratio()
	detail := ""
	ok := true
	for i, p := range policies {
		detail += fmt.Sprintf("%s=%.4f ", p, g[i].ratio())
		if i < len(policies)-1 && !(g[i].ratio() < random) {
			ok = false
		}
	}
	return checkf("learning policies beat random on regret", ok, "%s", detail)
}

// saveLoadCheck requires Save → Load → Save to reproduce the snapshot
// byte for byte. A snapshot records the wall-clock time of its save, so
// the reloaded service runs on a clock pinned at the first save's time.
func saveLoadCheck(svc *serve.Service) check {
	const name = "save/load/save is byte-identical"
	var a, b bytes.Buffer
	if err := svc.Save(&a); err != nil {
		return checkf(name, false, "save: %v", err)
	}
	var head struct {
		SavedAt time.Time `json:"saved_at"`
	}
	if err := json.Unmarshal(a.Bytes(), &head); err != nil {
		return checkf(name, false, "read saved_at: %v", err)
	}
	s2, err := serve.Load(bytes.NewReader(a.Bytes()), serve.ServiceOptions{Now: func() time.Time { return head.SavedAt }})
	if err != nil {
		return checkf(name, false, "load: %v", err)
	}
	defer s2.Close()
	if err := s2.Save(&b); err != nil {
		return checkf(name, false, "re-save: %v", err)
	}
	return checkf(name, bytes.Equal(a.Bytes(), b.Bytes()), "%d bytes vs %d", a.Len(), b.Len())
}

// serveCounts records the service's own counters and the driver's
// exploration tally as per-layer values.
func (o *runOutput) serveCounts(issued, observed, evicted uint64) {
	o.layer["serve.issued"] = float64(issued)
	o.layer["serve.observed"] = float64(observed)
	o.layer["serve.evicted"] = float64(evicted)
	if issued > 0 {
		o.layer["serve.redeem_ratio"] = float64(observed) / float64(issued)
	}
	if o.merged.recs > 0 {
		o.layer["serve.explore_share"] = float64(o.merged.explored) / float64(o.merged.recs)
	}
}

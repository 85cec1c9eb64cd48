package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"banditware/internal/dist"
	"banditware/internal/loadgen"
	"banditware/internal/serve"
)

// fleet-observe-heavy: a closed loop through a router and three
// replicas, every recommend redeemed, delta sync on a fixed interval.
// The router's membership is confirmed once at set-up and stays fixed
// for the run: its readiness poller is not started. fleet-polled is the
// same workload with the poller running at its default interval. A
// replica answers its readiness probe 503 while it merges a peer's
// delta, so a probe landing then drops it from the ring and in-flight
// tickets route to a replica that never issued them (404); fleet-polled
// shows that, fleet-observe-heavy measures the fleet without it.
const (
	fleetReplicas = 3
	fleetStreams  = 64
	fleetObserve  = 1.0
	fleetLimit    = 3 * time.Millisecond
	fleetSync     = 200 * time.Millisecond
	fleetOps      = 1 << 16
	// fleetRegretSessions is how many sessions from the start of the run
	// regret_ratio covers: about 10 s of a closed loop on a 2-core box.
	fleetRegretSessions = 40_000
)

// fleet is a router and its replicas, each on its own loopback server,
// assembled from dist.NewReplica and dist.NewRouter so the benchmark can
// wrap their handlers.
type fleet struct {
	reps   []*dist.Replica
	srvs   []*server
	router *dist.Router
	rsrv   *server
}

func classifyRouter(r *http.Request) spanName {
	switch rec, obs := routeOf(r); {
	case rec:
		return spanRouterRecommend
	case obs:
		return spanRouterObserve
	}
	return spanRouterOther
}

func classifyReplica(r *http.Request) spanName {
	switch rec, obs := routeOf(r); {
	case rec:
		return spanReplicaRecommend
	case obs:
		return spanReplicaObserve
	case r.URL.Path == "/v1/dist/delta":
		return spanDeltaApply
	}
	return spanReplicaOther
}

// startFleet builds the fleet and returns once every stream exists and
// the router reports every replica ready.
func startFleet(tr *loadgen.Trace, spans *spanBuf, poll bool) (*fleet, error) {
	f := &fleet{}
	lns := make([]net.Listener, fleetReplicas)
	urls := make([]string, fleetReplicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	for i, ln := range lns {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		rep := dist.NewReplica(serve.NewService(serve.ServiceOptions{}),
			dist.ReplicaOptions{Self: urls[i], Peers: peers, SyncInterval: fleetSync})
		h := rep.Handler()
		if spans != nil {
			h = traceHandler(spans, classifyReplica, spanDeltaApply, h)
		}
		f.reps = append(f.reps, rep)
		f.srvs = append(f.srvs, serveListener(ln, h))
		rep.Start()
	}
	router, err := dist.NewRouter(urls, dist.RouterOptions{})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = router
	h := router.Handler()
	if spans != nil {
		h = traceHandler(spans, classifyRouter, spanNone, h)
	}
	if f.rsrv, err = serveOn(h); err != nil {
		f.close()
		return nil, err
	}
	if poll {
		router.Start()
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(router.CheckNow()) < fleetReplicas {
		if time.Now().After(deadline) {
			f.close()
			return nil, errors.New("fleet: replicas not ready after 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := createStreams(f.rsrv.url, tr); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) stopSync() {
	for _, r := range f.reps {
		r.Stop()
	}
}

func (f *fleet) close() {
	if f.router != nil {
		f.router.Stop()
	}
	f.stopSync()
	if f.rsrv != nil {
		f.rsrv.close()
	}
	for _, s := range f.srvs {
		s.close()
	}
}

// proxyErrors sums the router's per-replica transport error counters.
func (f *fleet) proxyErrors() (uint64, error) {
	rec := httptest.NewRecorder()
	f.router.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/router/replicas", nil))
	var body struct {
		Replicas []dist.ReplicaInfo `json:"replicas"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		return 0, fmt.Errorf("router replicas: %w", err)
	}
	var n uint64
	for _, r := range body.Replicas {
		n += r.Errors
	}
	return n, nil
}

func runFleet(rc runConfig) (*runOutput, error)       { return runFleetWith(rc, false) }
func runFleetPolled(rc runConfig) (*runOutput, error) { return runFleetWith(rc, true) }

func runFleetWith(rc runConfig, poll bool) (*runOutput, error) {
	tr, err := generate(loadgen.TraceConfig{Seed: rc.seed, App: "cycles", Streams: fleetStreams,
		Requests: fleetOps, ZipfSkew: 1.1, ObserveRatio: fleetObserve})
	if err != nil {
		return nil, err
	}
	out := &runOutput{trace: tr, layer: map[string]float64{}}
	sched := rc.schedule()
	ws := newWorkers(rc, sched, len(tr.Streams))
	var spans *spanBuf
	if rc.traced {
		spans = newSpanBuf(spanCap)
	}
	heap0 := liveHeap()
	var f *fleet
	out.setup, err = repeatSetup(setupRepeats, func(last bool) (time.Duration, error) {
		t0 := time.Now()
		fl, err := startFleet(tr, spans, poll)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		if last {
			f = fl
		} else {
			fl.close()
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	defer f.close()

	client := newAPIClient(f.rsrv.url, tr, rc.workers)
	xs := make([]exchange, len(ws))
	sched.start = time.Now()
	mem := watchMem(sched)
	sw := watchSteal(sched)
	runClosed(ws, func(w *worker, idx int) {
		for i := idx; ; i += len(ws) {
			now := time.Now()
			if ph, _ := sched.at(now); ph == sched.phases {
				return
			}
			httpSession(w, &xs[idx], client, spans, sched, tr.Ops, i, fleetRegretSessions, now, now, fleetLimit)
		}
	})
	client.close()
	out.mem = mem.wait()
	steal := sw.wait()
	out.heapMB = float64(liveHeap()-heap0) / (1 << 20)

	// Quiesce: stop the sync loops, push what is left, and let every
	// handler return before reading spans and counters.
	f.stopSync()
	var syncErr error
	for round := 0; round < 2; round++ {
		for _, r := range f.reps {
			syncErr = errors.Join(syncErr, r.SyncOnce())
		}
	}
	var failures uint64
	for _, r := range f.reps {
		failures += r.Status().Sync.Failures
	}
	proxyErrs, err := f.proxyErrors()
	if err != nil {
		return nil, err
	}
	f.rsrv.close()
	for _, s := range f.srvs {
		s.close()
	}
	f.rsrv, f.srvs = nil, nil

	out.merged = mergeWorkers(ws)
	for p := range out.merged.phases {
		out.phases = append(out.phases, summarize(out.merged.phases[p], sched.measure, &steal[p], true))
	}
	if spans != nil {
		out.spans, out.spanBase, out.dropped = spans.recorded(), spans.at(sched.phaseStart(1)), spans.dropped.Load()
	}
	out.checks = append(out.checks, checkf("final delta sync succeeds", syncErr == nil, "%v", syncErr))
	// Issued and observed counters travel in the deltas, so after the
	// final sync every replica reports the fleet-wide count.
	for i, r := range f.reps {
		c := reconcile(tr, out.merged, r.Service().StreamInfo)[0]
		c.Name = fmt.Sprintf("%s (replica %d)", c.Name, i)
		out.checks = append(out.checks, c)
	}
	// Every replica holds the fleet-wide issued and observed counts;
	// evictions are each replica's own.
	var issued, observed, evicted uint64
	for i, r := range f.reps {
		is, ob, ev, err := streamTotals(tr, r.Service().StreamInfo)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			issued, observed = is, ob
		}
		evicted += ev
	}
	out.serveCounts(issued, observed, evicted)
	out.layer["http.non2xx"] = float64(out.merged.non2xx)
	out.layer["dist.sync.failures"] = float64(failures)
	out.layer["dist.proxy_errors"] = float64(proxyErrs)
	return out, nil
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"banditware/internal/loadgen"
	"banditware/internal/serve"
)

// http-open: open-loop Poisson arrivals at a fixed rate through the
// hardened HTTP server on a loopback listener, with a periodic stats
// scrape on the same client.
const (
	httpStreams = 256
	httpObserve = 0.25
	// httpRate is the offered recommend rate (observes ride along), about
	// half the loopback capacity measured on a 2-core machine.
	httpRate    = 4000.0
	httpLimit   = 2 * time.Millisecond
	scrapeEvery = 100 * time.Millisecond
	// httpRegretSessions: regret_ratio covers the sessions due in the
	// first 20 s.
	httpRegretSessions = int(20 * httpRate)
)

// server is one HTTP server on a loopback listener.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveOn(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return serveListener(ln, h), nil
}

func serveListener(ln net.Listener, h http.Handler) *server {
	s := &server{srv: serve.NewServer(h), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return s
}

// close waits for in-flight requests, then for the serve loop to exit.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

func classifyServe(r *http.Request) spanName {
	switch rec, obs := routeOf(r); {
	case rec:
		return spanHTTPRecommend
	case obs:
		return spanHTTPObserve
	case r.URL.Path == "/v1/stats":
		return spanHTTPStats
	}
	return spanHTTPOther
}

func runHTTPOpen(rc runConfig) (*runOutput, error) {
	sched := rc.schedule()
	total := sched.end().Sub(sched.start)
	tr, err := generate(loadgen.TraceConfig{Seed: rc.seed, App: "cycles", Streams: httpStreams,
		Requests: int(httpRate*total.Seconds()*1.1) + 1000, ZipfSkew: 1.1, ObserveRatio: httpObserve, QPS: httpRate})
	if err != nil {
		return nil, err
	}
	var due []time.Duration
	for _, op := range tr.Ops {
		if op.AtNanos >= int64(total) {
			break
		}
		due = append(due, time.Duration(op.AtNanos))
	}
	if len(due) == len(tr.Ops) {
		return nil, errors.New("http-open: trace ends before the run does")
	}
	out := &runOutput{trace: tr, layer: map[string]float64{}}
	ws := newWorkers(rc, sched, len(tr.Streams))
	var spans *spanBuf
	if rc.traced {
		spans = newSpanBuf(spanCap)
	}
	heap0 := liveHeap()
	var svc *serve.Service
	var srv *server
	out.setup, err = repeatSetup(setupRepeats, func(last bool) (time.Duration, error) {
		t0 := time.Now()
		s := serve.NewService(serve.ServiceOptions{})
		var h http.Handler = serve.NewHandler(s)
		if spans != nil {
			h = traceHandler(spans, classifyServe, spanNone, h)
		}
		sv, err := serveOn(h)
		if err != nil {
			return 0, err
		}
		if err := createStreams(sv.url, tr); err != nil {
			sv.close()
			return 0, err
		}
		d := time.Since(t0)
		if last {
			svc, srv = s, sv
		} else {
			sv.close()
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}

	client := newAPIClient(srv.url, tr, rc.workers)
	xs := make([]exchange, len(ws))
	sched.start = time.Now()
	mem := watchMem(sched)
	sw := watchSteal(sched)
	scr := startScraper(client, sched, spans)
	runOpen(sched.start, due, len(ws), func(wi, i int, due, released, send time.Time) {
		w := ws[wi]
		if ph, _ := sched.at(due); ph >= 0 {
			w.ph[ph].genLate.add(released.Sub(due), &w.ph[ph].rnd)
		}
		httpSession(w, &xs[wi], client, spans, sched, tr.Ops, i, httpRegretSessions, due, send, httpLimit)
	})
	scrapes, scrapeErr := scr.stop()
	client.close()
	out.mem = mem.wait()
	steal := sw.wait()
	out.heapMB = float64(liveHeap()-heap0) / (1 << 20)
	srv.close() // every handler has returned, so its spans are complete
	out.merged = mergeWorkers(ws)
	for p := range out.merged.phases {
		out.phases = append(out.phases, summarize(out.merged.phases[p], sched.measure, &steal[p], false))
	}
	if spans != nil {
		out.spans, out.spanBase, out.dropped = spans.recorded(), spans.at(sched.phaseStart(1)), spans.dropped.Load()
	}
	out.checks = append(out.checks, reconcile(tr, out.merged, svc.StreamInfo)...)
	out.checks = append(out.checks, checkf("stats scrapes succeed", scrapeErr == nil && scrapes > 0,
		"%d scrapes, error %v", scrapes, scrapeErr))
	issued, observed, evicted, err := streamTotals(tr, svc.StreamInfo)
	if err != nil {
		return nil, err
	}
	out.serveCounts(issued, observed, evicted)
	out.layer["http.non2xx"] = float64(out.merged.non2xx)
	return out, nil
}

// httpSession sends session i's recommend and, when the op redeems, its
// observe.
// Latencies count from due: the op's scheduled send time on the open
// loop, its actual send time on a closed loop. A traced session records
// each request's client round trip, whose span ID travels to the server
// as the parent. On the open loop a recommend also gets a root span from
// its due time, with the slot wait (due → send) and the round trip as
// children; an observe is due when its recommend completes and is sent
// at once, so its round trip is its root.
func httpSession(w *worker, x *exchange, c *apiClient, spans *spanBuf, sched schedule, ops []loadgen.Op, i, regretBudget int,
	due, send time.Time, limit time.Duration) {
	op := &ops[i%len(ops)]
	ph, win := sched.at(due)
	traced := w.sample(traceStride(1, sched.measure)) && ph == 1
	queued := send.After(due)
	req := w.reqID()
	var root, cli uint32
	if traced {
		cli = spans.open()
		if queued {
			root = spans.open()
		}
	}
	tk, err := c.recommend(x, op.Stream, op.Features, req, cli)
	done := time.Now()
	if ph >= 0 {
		w.ph[ph].recommend(win, done.Sub(due), err == nil, limit)
	}
	if traced {
		if queued {
			spans.put(root, span{Start: spans.at(due), End: spans.at(done), Req: req, Name: spanRecommend})
			spans.put(spans.open(), span{Start: spans.at(due), End: spans.at(send), Req: req,
				Parent: root, Name: spanSlotWait})
		}
		spans.put(cli, span{Start: spans.at(send), End: spans.at(done), Req: req, Parent: root, Name: spanClientRecommend})
	}
	if err != nil {
		w.failHTTP(err)
		return
	}
	w.recOK[op.Stream]++
	w.recs++
	if tk.Explored {
		w.explored++
	}
	if !op.Observe {
		return
	}
	if tk.Arm < 0 || tk.Arm >= len(op.Runtimes) {
		w.fail(fmt.Errorf("ticket %s names arm %d of %d", tk.ID, tk.Arm, len(op.Runtimes)))
		return
	}
	rt := op.Runtimes[tk.Arm]
	req = w.reqID()
	if traced {
		cli = spans.open()
	}
	err = c.observe(x, tk.ID, rt, req, cli)
	end := time.Now()
	if ph >= 0 {
		w.ph[ph].observe(win, end.Sub(done), err == nil)
	}
	if traced {
		spans.put(cli, span{Start: spans.at(done), End: spans.at(end), Req: req, Name: spanClientObserve})
	}
	if err != nil {
		w.failHTTP(err)
		return
	}
	w.obsOK[op.Stream]++
	w.redeemed(i, regretBudget, 0, op.Features, op.Runtimes, tk.Arm)
}

func (w *worker) failHTTP(err error) {
	var se *statusError
	if errors.As(err, &se) {
		w.non2xx++
	}
	w.fail(err)
}

// scraper fetches GET /v1/stats every scrapeEvery on the load's own
// client, recording a span per scrape in the traced phase.
type scraper struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	n      int
	err    error
}

func startScraper(c *apiClient, sched schedule, spans *spanBuf) *scraper {
	s := &scraper{stopCh: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		var x exchange
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		var req uint64
		for {
			select {
			case <-s.stopCh:
				return
			case <-t.C:
			}
			start := time.Now()
			ph, _ := sched.at(start)
			var id uint32
			if ph == 1 && spans != nil {
				id = spans.open()
			}
			req++
			err := c.do(&x, http.MethodGet, c.base+"/v1/stats", req, id)
			if id != 0 {
				spans.put(id, span{Start: spans.at(start), End: spans.at(time.Now()), Req: req, Name: spanScrape})
			}
			s.n++
			if err != nil && s.err == nil {
				s.err = err
			}
		}
	}()
	return s
}

// stop ends the scrape loop and returns how many scrapes ran and the
// first error.
func (s *scraper) stop() (int, error) {
	close(s.stopCh)
	s.wg.Wait()
	return s.n, s.err
}

package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"banditware/internal/loadgen"
)

const (
	// warmup runs before the first measured phase, so models, caches and
	// connection pools settle before anything is timed.
	warmup = 2 * time.Second
	// setupRepeats is how many times a run builds the system; setup_s is
	// the median, and the last build serves the run.
	setupRepeats = 11
	// setupGap separates the builds. Back-to-back builds of well under a
	// millisecond all landed in one of two speed modes of the shared
	// host (about 0.28 or 0.5 ms on inproc-policies) that last a few
	// milliseconds, so the median of 11 moved by half between runs;
	// builds spread over a second sample both modes.
	setupGap = 10 * time.Millisecond
	// spanCap bounds the spans one traced run keeps.
	spanCap = 1 << 19
	// seqCap bounds the recorded (context, arm, runtime) decisions the
	// engine replay uses.
	seqCap = 20000
)

// runConfig is what one invocation asks for.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
	workers int // closed-loop workers and open-loop connections
}

func (rc runConfig) schedule() schedule {
	s := schedule{start: time.Now(), warm: warmup, phases: 1}
	s.measure = time.Duration(rc.seconds * float64(time.Second))
	if rc.traced {
		s.phases = 2
		s.measure /= 2
	}
	return s
}

// check is one output check; any failed check fails the run.
type check struct {
	Name   string
	OK     bool
	Detail string
}

func checkf(name string, ok bool, format string, args ...any) check {
	return check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// decision is one redeemed recommendation, kept for the engine replay.
type decision struct {
	x       []float64
	arm     int
	runtime float64
}

// worker is one load-generating goroutine's private state; nothing in it
// is shared until the run ends.
type worker struct {
	ph        []*phaseRec // one per measured phase
	recOK     []uint64    // successful recommends per stream, whole run
	obsOK     []uint64
	recs      uint64 // successful recommends, whole run
	explored  uint64
	non2xx    uint64
	sessions  uint64 // sessions started, for trace sampling
	seq       []decision
	regret    regretGroups // sessions below the workload's regret budget
	firstErr  error
	nextReqID uint64
}

func newWorkers(rc runConfig, sched schedule, streams int) []*worker {
	ws := make([]*worker, rc.workers)
	for i := range ws {
		w := &worker{recOK: make([]uint64, streams), obsOK: make([]uint64, streams),
			seq: make([]decision, 0, seqCap), nextReqID: uint64(i+1) << 40}
		for p := 0; p < sched.phases; p++ {
			w.ph = append(w.ph, newPhaseRec(rc.seed*31+uint64(i*7+p), reservoirCap))
		}
		ws[i] = w
	}
	return ws
}

func (w *worker) fail(err error) {
	if w.firstErr == nil {
		w.firstErr = err
	}
}

func (w *worker) reqID() uint64 {
	w.nextReqID++
	return w.nextReqID
}

// sample counts a session and reports whether the traced phase should
// trace it: one in every stride.
func (w *worker) sample(stride int) bool {
	w.sessions++
	return (w.sessions-1)%uint64(stride) == 0
}

// redeemed records a redeemed decision of session i: its regret, while
// i is below budget, and the decision itself for the engine replay.
func (w *worker) redeemed(i, budget, group int, x, runtimes []float64, arm int) {
	if i < budget {
		w.regret[group].add(runtimes, arm)
	}
	if len(w.seq) < seqCap {
		w.seq = append(w.seq, decision{x, arm, runtimes[arm]})
	}
}

// merged is every worker's state pooled at the end of a run.
type merged struct {
	recOK, obsOK []uint64
	recs         uint64
	explored     uint64
	non2xx       uint64
	phases       [][]*phaseRec
	seq          []decision
	regret       regretGroups
	err          error
}

// mergeWorkers sums the workers' counters and regret and collects their
// per-phase records.
func mergeWorkers(ws []*worker) merged {
	m := merged{recOK: make([]uint64, len(ws[0].recOK)), obsOK: make([]uint64, len(ws[0].obsOK)),
		phases: make([][]*phaseRec, len(ws[0].ph))}
	for _, w := range ws {
		for i := range w.recOK {
			m.recOK[i] += w.recOK[i]
			m.obsOK[i] += w.obsOK[i]
		}
		m.recs += w.recs
		m.explored += w.explored
		m.non2xx += w.non2xx
		for p, r := range w.ph {
			m.phases[p] = append(m.phases[p], r)
		}
		m.seq = append(m.seq, w.seq...)
		m.regret.merge(&w.regret)
		if m.err == nil {
			m.err = w.firstErr
		}
	}
	return m
}

// runOutput is everything a workload hands back for reporting.
type runOutput struct {
	trace    *loadgen.Trace
	setup    []float64 // seconds, one per build
	heapMB   float64
	phases   []phaseSummary
	mem      memDelta // over the untraced phase
	checks   []check
	layer    map[string]float64 // per-layer values only this workload measures
	spans    []span
	spanBase int64 // buffer time at which the traced phase starts
	dropped  int64
	merged   merged
}

// repeatSetup builds the system n times, setupGap apart, and returns
// each build's duration in seconds. once is told whether its build is the
// last, which the run keeps.
func repeatSetup(n int, once func(last bool) (time.Duration, error)) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		time.Sleep(setupGap)
		d, err := once(i == n-1)
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// liveHeap forces a full collection and returns the bytes of heap in use.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// memDelta is the Go runtime's allocation and GC activity over a span of
// wall time.
type memDelta struct {
	mallocs, bytes, gcs uint64
	pause               time.Duration
}

// memWatch samples runtime.MemStats at the start and end of the
// untraced phase, from its own goroutine. wait returns the difference.
type memWatch struct {
	done chan struct{}
	d    memDelta
}

func watchMem(sched schedule) *memWatch {
	m := &memWatch{done: make(chan struct{})}
	go func() {
		defer close(m.done)
		var a, b runtime.MemStats
		time.Sleep(time.Until(sched.phaseStart(0)))
		runtime.ReadMemStats(&a)
		time.Sleep(time.Until(sched.phaseStart(1)))
		runtime.ReadMemStats(&b)
		m.d = memDelta{b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc,
			uint64(b.NumGC - a.NumGC), time.Duration(b.PauseTotalNs - a.PauseTotalNs)}
	}()
	return m
}

func (m *memWatch) wait() memDelta {
	<-m.done
	return m.d
}

// runClosed runs loop on its own goroutine for each worker and waits
// for all of them to return.
func runClosed(ws []*worker, loop func(w *worker, idx int)) {
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(w, i)
		}()
	}
	wg.Wait()
}

// runOpen replays ops due at start+due[i] on slots workers. One
// generator goroutine releases each op at its due time into a queue that
// the workers drain in order, so an op that finds every worker busy
// waits in the queue and the wait counts against it. exec gets the op's
// due time and the instants the generator released it and a worker sent
// it; released minus due is the generator's own lateness.
func runOpen(start time.Time, due []time.Duration, slots int, exec func(worker, i int, due, released, send time.Time)) {
	type item struct {
		i        int
		released time.Time
	}
	// Sized to every op, so the generator never blocks on a full queue
	// and stays on schedule however far the workers fall behind.
	queue := make(chan item, len(due))
	var wg sync.WaitGroup
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				exec(w, it.i, start.Add(due[it.i]), it.released, time.Now())
			}
		}()
	}
	sleep, closeSleeper := newSleeper()
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			sleep(wait)
		}
		queue <- item{i, time.Now()}
	}
	closeSleeper()
	close(queue)
	wg.Wait()
}

// traceParts is how many independently seeded traces a workload's trace
// is merged from. Each part draws its contexts and runtimes from its own
// sample of the workload's dataset, so one unlucky sample moves the
// decision-quality metric less.
const traceParts = 16

// generate builds cfg's trace from traceParts parts whose seeds derive
// from cfg.Seed. With a rate, each part arrives at rate/traceParts and
// the parts merge by arrival time (the superposition is again a Poisson
// process at the full rate); without one, they interleave op by op.
func generate(cfg loadgen.TraceConfig) (*loadgen.Trace, error) {
	parts := make([]*loadgen.Trace, traceParts)
	for j := range parts {
		c := cfg
		c.Seed = cfg.Seed*traceParts + uint64(j)
		c.Requests = (cfg.Requests + traceParts - 1) / traceParts
		c.QPS = cfg.QPS / traceParts
		tr, err := loadgen.Generate(c)
		if err != nil {
			return nil, err
		}
		parts[j] = tr
	}
	out := *parts[0]
	out.Config.Seed, out.Config.QPS = cfg.Seed, cfg.QPS
	out.Ops = make([]loadgen.Op, 0, len(parts)*len(parts[0].Ops))
	if cfg.QPS == 0 {
		for i := range parts[0].Ops {
			for _, p := range parts {
				out.Ops = append(out.Ops, p.Ops[i])
			}
		}
	} else {
		next := make([]int, len(parts))
		for {
			best := -1
			for j, p := range parts {
				if next[j] < len(p.Ops) && (best < 0 || p.Ops[next[j]].AtNanos < parts[best].Ops[next[best]].AtNanos) {
					best = j
				}
			}
			if best < 0 {
				break
			}
			out.Ops = append(out.Ops, parts[best].Ops[next[best]])
			next[best]++
		}
	}
	out.Config.Requests = len(out.Ops)
	return &out, nil
}

// traceStride is how many sessions a traced phase advances per traced
// session: base per 10 s of phase, so the span buffer holds a whole
// phase of any length.
func traceStride(base int, measure time.Duration) int {
	return base * max(1, int(measure/(10*time.Second)))
}

// streamSeed derives a stream's engine seed from the run seed, the way
// internal/loadgen does for its targets.
func streamSeed(seed uint64, stream int) uint64 {
	return seed + uint64(stream)*2654435761 + 1
}

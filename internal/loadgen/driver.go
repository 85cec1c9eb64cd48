package loadgen

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"banditware/internal/stats"
)

// Mode selects how the driver paces requests.
type Mode string

const (
	// ModeClosed is closed-loop load: Concurrency workers each issue
	// the next request as soon as the previous one completes, so the
	// offered load adapts to the target's speed. Throughput under
	// closed-loop load is the capacity number.
	ModeClosed Mode = "closed"
	// ModeOpen is open-loop load: requests are dispatched at the
	// trace's Poisson arrival times regardless of completions (bounded
	// by MaxInFlight), the way independent external clients behave.
	// Latency under open-loop load is the user-visible number.
	ModeOpen Mode = "open"
)

// RunOptions configures one driver run over a trace.
type RunOptions struct {
	// Mode paces the run; default closed.
	Mode Mode
	// Concurrency is the closed-loop worker count, and in open-loop
	// mode the number of request slots (the in-flight bound). Default
	// GOMAXPROCS.
	Concurrency int
	// Duration, when positive, stops issuing new sessions after this
	// wall-clock budget even if trace ops remain.
	Duration time.Duration
	// TimeScale compresses (>1) or stretches (<1) the trace's open-loop
	// arrival times; 0 means 1 (replay at the recorded QPS).
	TimeScale float64
	// Churn runs the arm-churn drill inside the measured window: a
	// warm-started hardware arm is added to every stream a quarter of
	// the way through the trace, drained at half, and retired at three
	// quarters. The target must implement ArmChurner.
	Churn bool
	// Chaos runs the kill/restart drill inside the measured window:
	// replica 1 is hard-killed a third of the way through the trace and
	// restarted at two thirds. The target must implement ReplicaKiller.
	Chaos bool
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Mode == "" {
		o.Mode = ModeClosed
	}
	if o.Concurrency <= 0 {
		o.Concurrency = runtime.GOMAXPROCS(0)
	}
	if o.TimeScale == 0 {
		o.TimeScale = 1
	}
	return o
}

// Histogram bounds: per-request latencies from hundreds of ns
// (in-process recommend) to seconds (overloaded HTTP), at 1% relative
// quantile resolution.
const (
	histMin    = 50e-9
	histMax    = 60.0
	histRelErr = 0.01
)

// LatencySummary condenses one operation type's latency histogram for
// the report. All values are microseconds.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
	MaxUS  float64 `json:"max_us"`
}

func summarize(h *stats.LogHistogram) LatencySummary {
	if h.Count() == 0 {
		return LatencySummary{}
	}
	us := func(sec float64) float64 { return sec * 1e6 }
	return LatencySummary{
		Count:  h.Count(),
		MeanUS: us(h.Mean()),
		P50US:  us(h.Quantile(0.5)),
		P90US:  us(h.Quantile(0.9)),
		P99US:  us(h.Quantile(0.99)),
		P999US: us(h.Quantile(0.999)),
		MaxUS:  us(h.Max()),
	}
}

// Result is the measured outcome of one run against one target.
type Result struct {
	Target      string `json:"target"`
	Mode        string `json:"mode"`
	Concurrency int    `json:"concurrency"`
	Requests    uint64 `json:"requests"`
	Recommends  uint64 `json:"recommends"`
	Observes    uint64 `json:"observes"`
	Errors      uint64 `json:"errors"`
	// Chaos marks a run that included the fleet kill/restart drill:
	// errors up to the failover-window bound are expected, and
	// validation policies should tolerate them.
	Chaos bool `json:"chaos,omitempty"`
	// Churn marks a run that included the arm-churn drill (add at a
	// quarter of the trace, drain at half, retire at three quarters, on
	// every stream); ChurnEvents counts the lifecycle transitions
	// applied. Requests racing a retire can lose their pending tickets
	// by design, so validation policies should tolerate a small error
	// count on churn runs.
	Churn          bool    `json:"churn,omitempty"`
	ChurnEvents    uint64  `json:"churn_events,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// ThroughputRPS counts every op (recommend and observe) per second
	// of wall clock.
	ThroughputRPS float64 `json:"throughput_rps"`
	// TargetQPS echoes the open-loop offered load (0 for closed loop).
	TargetQPS float64 `json:"target_qps,omitempty"`
	// BehindScheduleOps counts open-loop arrivals the dispatcher could
	// not launch on time because every slot was busy — nonzero means
	// the measured latency underestimates the queueing a real client
	// would see at this load.
	BehindScheduleOps uint64 `json:"behind_schedule_ops,omitempty"`
	// BehindFraction is BehindScheduleOps over dispatched recommends —
	// the share of the offered schedule the driver failed to keep.
	BehindFraction float64 `json:"behind_fraction,omitempty"`
	// Failed carries the run-level error when the run died before
	// producing measurements (e.g. target setup refused). A failed
	// result keeps its configuration fields (target, mode, concurrency,
	// target QPS) so partial reports stay schema-valid and diagnosable;
	// the measurement invariants are not enforced on it.
	Failed    string         `json:"failed,omitempty"`
	Recommend LatencySummary `json:"recommend"`
	Observe   LatencySummary `json:"observe"`
	// AllocsPerOp and BytesPerOp are heap allocation deltas across the
	// run divided by total ops. They include the driver's own footprint
	// (trace replay, histograms), so treat them as an upper bound on
	// the serving path.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	GCCycles    uint32  `json:"gc_cycles"`
	// ErrorSamples holds up to a handful of distinct error strings so a
	// failing run is diagnosable from the report alone.
	ErrorSamples []string `json:"error_samples,omitempty"`
}

// workerState is one worker's private measurement state; merged after
// the run so the record path takes no locks.
type workerState struct {
	recommend  *stats.LogHistogram
	observe    *stats.LogHistogram
	recommends uint64
	observes   uint64
	errors     uint64
	samples    []string
}

func newWorkerState() (*workerState, error) {
	rh, err := stats.NewLogHistogram(histMin, histMax, histRelErr)
	if err != nil {
		return nil, err
	}
	oh, err := stats.NewLogHistogram(histMin, histMax, histRelErr)
	if err != nil {
		return nil, err
	}
	return &workerState{recommend: rh, observe: oh}, nil
}

func (w *workerState) fail(err error) {
	w.errors++
	if len(w.samples) < 3 {
		w.samples = append(w.samples, err.Error())
	}
}

// session executes one trace op end to end: recommend, then the
// observe when the op carries one and the recommend succeeded.
func (w *workerState) session(tgt Target, tr *Trace, op *Op) {
	start := time.Now()
	dec, err := tgt.Recommend(tr.Streams[op.Stream].Name, op, tr)
	w.recommend.Add(time.Since(start).Seconds())
	w.recommends++
	if err != nil {
		w.fail(err)
		return
	}
	if !op.Observe {
		return
	}
	rt := op.Runtimes[0]
	if dec.Arm >= 0 && dec.Arm < len(op.Runtimes) {
		rt = op.Runtimes[dec.Arm]
	}
	start = time.Now()
	err = tgt.Observe(dec, rt)
	w.observe.Add(time.Since(start).Seconds())
	w.observes++
	if err != nil {
		w.fail(err)
	}
}

// Run replays the trace against the target under opts and returns the
// measured result. Setup (stream creation) happens inside Run but is
// excluded from the measured window.
//
// When the run dies before measuring (a drill the target cannot run,
// or a target setup failure), Run returns the error alongside a
// non-nil partial Result: configuration fields filled in, Failed set,
// measurements zero. Callers that emit reports should record the
// partial result so an errored run still leaves a schema-valid
// document behind.
func Run(tgt Target, tr *Trace, opts RunOptions) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Mode != ModeClosed && opts.Mode != ModeOpen {
		return nil, fmt.Errorf("loadgen: unknown mode %q", opts.Mode)
	}
	if opts.Mode == ModeOpen && tr.Config.QPS <= 0 {
		return nil, fmt.Errorf("loadgen: open-loop replay needs a trace generated with qps > 0")
	}
	res := &Result{
		Target:      tgt.Name(),
		Mode:        string(opts.Mode),
		Concurrency: opts.Concurrency,
		Chaos:       opts.Chaos,
		Churn:       opts.Churn,
	}
	if opts.Mode == ModeOpen {
		res.TargetQPS = tr.Config.QPS * opts.TimeScale
	}
	d, err := newDrill(tgt, tr, opts)
	if err == nil {
		err = tgt.Setup(tr)
	}
	if err != nil {
		res.Failed = err.Error()
		return res, err
	}

	states := make([]*workerState, opts.Concurrency)
	for i := range states {
		st, err := newWorkerState()
		if err != nil {
			return nil, err
		}
		states[i] = st
	}

	var memBefore, memAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	var deadline time.Time
	if opts.Duration > 0 {
		deadline = start.Add(opts.Duration)
	}
	var behind uint64
	if opts.Mode == ModeClosed {
		runClosed(tgt, tr, states, deadline, d)
	} else {
		behind = runOpen(tgt, tr, opts.TimeScale, states, start, deadline, d)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&memAfter)

	res.ElapsedSeconds = elapsed.Seconds()
	res.BehindScheduleOps = behind
	rh, err := stats.NewLogHistogram(histMin, histMax, histRelErr)
	if err != nil {
		return nil, err
	}
	oh, _ := stats.NewLogHistogram(histMin, histMax, histRelErr)
	for _, st := range states {
		if err := rh.Merge(st.recommend); err != nil {
			return nil, err
		}
		if err := oh.Merge(st.observe); err != nil {
			return nil, err
		}
		res.Recommends += st.recommends
		res.Observes += st.observes
		res.Errors += st.errors
		for _, s := range st.samples {
			if len(res.ErrorSamples) < 5 {
				res.ErrorSamples = append(res.ErrorSamples, s)
			}
		}
	}
	res.Requests = res.Recommends + res.Observes
	if elapsed > 0 {
		res.ThroughputRPS = float64(res.Requests) / elapsed.Seconds()
	}
	if res.Recommends > 0 {
		res.BehindFraction = float64(behind) / float64(res.Recommends)
	}
	res.Recommend = summarize(rh)
	res.Observe = summarize(oh)
	if res.Requests > 0 {
		res.AllocsPerOp = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(res.Requests)
		res.BytesPerOp = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / float64(res.Requests)
	}
	res.GCCycles = memAfter.NumGC - memBefore.NumGC
	if d != nil {
		res.ChurnEvents = d.churnEvents
		return res, d.finish()
	}
	return res, nil
}

// runClosed replays the trace with a fixed worker pool; each worker
// runs its next session as soon as the previous one finishes. Ops are
// statically strided across the workers — worker w replays ops w,
// w+W, w+2W, ... — so the replay loop is dispatch-free: no shared
// channel on the hot path, which matters when the target serves in
// hundreds of ns. A drill adds one atomic claim per session, and its
// steps run on the worker that claims their op. The deadline is polled
// every few ops so the check does not put a clock read on every
// request.
func runClosed(tgt Target, tr *Trace, states []*workerState, deadline time.Time, d *drill) {
	var wg sync.WaitGroup
	for w, st := range states {
		wg.Add(1)
		go func(w int, st *workerState) {
			defer wg.Done()
			for i := w; i < len(tr.Ops); i += len(states) {
				if !deadline.IsZero() && i/len(states)%64 == 0 && time.Now().After(deadline) {
					return
				}
				if d != nil {
					d.claim()
				}
				st.session(tgt, tr, &tr.Ops[i])
			}
		}(w, st)
	}
	wg.Wait()
}

// runOpen dispatches ops at their recorded arrival times, compressed by
// timeScale. Worker states double as request slots: the dispatcher
// blocks when all Concurrency slots are in flight (bounding memory) and
// counts those stalls as behind-schedule ops.
func runOpen(tgt Target, tr *Trace, timeScale float64, states []*workerState, start, deadline time.Time, d *drill) (behind uint64) {
	pool := make(chan *workerState, len(states))
	for _, st := range states {
		pool <- st
	}
	var wg sync.WaitGroup
	for i := range tr.Ops {
		op := &tr.Ops[i]
		at := time.Duration(float64(op.AtNanos) / timeScale)
		arrival := start.Add(at)
		if wait := time.Until(arrival); wait > 0 {
			time.Sleep(wait)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		// Drill steps run synchronously on the dispatcher; the brief
		// stall they cause shows up as behind-schedule ops, the honest
		// accounting for a rollout or outage under offered load.
		if d != nil {
			d.claim()
		}
		var st *workerState
		select {
		case st = <-pool:
		default:
			// All slots busy at this op's arrival time: the offered
			// load exceeds what Concurrency slots can absorb. Block
			// (bounded memory) but record the schedule slip.
			behind++
			st = <-pool
		}
		wg.Add(1)
		go func(st *workerState, op *Op) {
			defer wg.Done()
			st.session(tgt, tr, op)
			pool <- st
		}(st, op)
	}
	wg.Wait()
	return behind
}

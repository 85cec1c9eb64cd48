package loadgen

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func smokeTrace(t *testing.T, qps float64) *Trace {
	t.Helper()
	tr, err := Generate(TraceConfig{Seed: 9, App: "cycles", Streams: 8, Requests: 400, ZipfSkew: 1.1, ObserveRatio: 0.5, QPS: qps})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func checkResult(t *testing.T, res *Result, wantTarget string) {
	t.Helper()
	if res.Target != wantTarget {
		t.Errorf("target = %q, want %q", res.Target, wantTarget)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors; samples: %s", res.Errors, strings.Join(res.ErrorSamples, " | "))
	}
	if res.Recommends != 400 {
		t.Errorf("recommends = %d, want 400", res.Recommends)
	}
	if res.Observes == 0 || res.Observes > 400 {
		t.Errorf("observes = %d, want in (0, 400]", res.Observes)
	}
	if res.Requests != res.Recommends+res.Observes {
		t.Errorf("requests = %d, want %d", res.Requests, res.Recommends+res.Observes)
	}
	if res.ThroughputRPS <= 0 {
		t.Errorf("throughput = %g", res.ThroughputRPS)
	}
	if res.Recommend.Count != res.Recommends || !(res.Recommend.P50US > 0) {
		t.Errorf("recommend summary %+v inconsistent", res.Recommend)
	}
	if res.Observe.Count != res.Observes {
		t.Errorf("observe summary count %d, want %d", res.Observe.Count, res.Observes)
	}
}

func TestRunClosedLoopInProc(t *testing.T) {
	tr := smokeTrace(t, 0)
	tgt := NewInProc()
	defer tgt.Close()
	res, err := Run(tgt, tr, RunOptions{Mode: ModeClosed, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "inproc")
	// The service really served: every stream with traffic advanced its
	// round counter.
	stats := tgt.Service.Stats()
	if stats.TotalIssued != 400 {
		t.Errorf("service issued tickets = %d, want 400", stats.TotalIssued)
	}
	if stats.TotalObserved == 0 {
		t.Error("service saw no observes")
	}
}

func TestRunClosedLoopHTTP(t *testing.T) {
	tr := smokeTrace(t, 0)
	tgt, err := NewSelfHTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	res, err := Run(tgt, tr, RunOptions{Mode: ModeClosed, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "http")
}

func TestRunOpenLoopInProc(t *testing.T) {
	// 400 requests at a nominal 200 QPS, replayed 40x fast (~50ms).
	tr := smokeTrace(t, 200)
	tgt := NewInProc()
	defer tgt.Close()
	res, err := Run(tgt, tr, RunOptions{Mode: ModeOpen, Concurrency: runtime.GOMAXPROCS(0), TimeScale: 40})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "inproc")
	if res.Mode != string(ModeOpen) {
		t.Errorf("mode = %q", res.Mode)
	}
	if res.TargetQPS != 200*40 {
		t.Errorf("target qps = %g, want 8000", res.TargetQPS)
	}
}

func TestRunOpenLoopNeedsArrivals(t *testing.T) {
	tr := smokeTrace(t, 0)
	if _, err := Run(NewInProc(), tr, RunOptions{Mode: ModeOpen}); err == nil {
		t.Fatal("open-loop replay of a trace without arrival times should fail")
	}
}

func TestRunRawVectors(t *testing.T) {
	tr := smokeTrace(t, 0)
	tgt := NewInProc()
	defer tgt.Close()
	res, err := Run(tgt, tr, RunOptions{Mode: ModeClosed, Concurrency: 2, Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "inproc")
	if !res.Raw {
		t.Error("result does not record raw-vector mode")
	}
}

// slowTarget is an in-process target whose recommends take at least
// delay, so how much of a trace fits in a time budget does not depend
// on how fast the machine serves.
type slowTarget struct {
	*InProc
	delay time.Duration
}

func (t slowTarget) Recommend(stream string, op *Op, tr *Trace) (Decision, error) {
	time.Sleep(t.delay)
	return t.InProc.Recommend(stream, op, tr)
}

// TestRunDurationCap: a closed run stops issuing at its Duration. Each
// recommend takes at least 100µs, so the whole trace needs 10 s on two
// workers and only a partial run fits in the 150 ms cap.
func TestRunDurationCap(t *testing.T) {
	tr, err := Generate(TraceConfig{Seed: 2, Streams: 4, Requests: 200000, ObserveRatio: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	tgt := slowTarget{NewInProc(), 100 * time.Microsecond}
	defer tgt.Close()
	start := time.Now()
	res, err := Run(tgt, tr, RunOptions{Mode: ModeClosed, Concurrency: 2, Duration: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("duration cap did not bite (ran %v)", elapsed)
	}
	if res.Recommends == 0 || res.Recommends >= 200000 {
		t.Fatalf("recommends = %d, want a partial run", res.Recommends)
	}
}

// TestRunHTTPErrorsCounted: a target pointed at a server without the
// trace's streams yields request errors, not a driver failure.
func TestRunHTTPErrorsCounted(t *testing.T) {
	tr := smokeTrace(t, 0)
	good, err := NewSelfHTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	// Target whose Setup is skipped by pre-creating only half the
	// streams: drive requests straight at an empty server instead.
	empty, err := NewSelfHTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	// Bypass Setup: run sessions directly so recommend hits 404s.
	st, err := newWorkerState()
	if err != nil {
		t.Fatal(err)
	}
	st.session(empty, tr, &tr.Ops[0], false)
	if st.errors != 1 || st.recommends != 1 {
		t.Fatalf("errors = %d, recommends = %d; want 1, 1", st.errors, st.recommends)
	}
	if len(st.samples) == 0 || !strings.Contains(st.samples[0], "404") {
		t.Fatalf("error sample %q does not carry the status", st.samples)
	}
}

func BenchmarkSessionInProc(b *testing.B) {
	tr, err := Generate(TraceConfig{Seed: 9, Streams: 8, Requests: 1000, ObserveRatio: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	tgt := NewInProc()
	if err := tgt.Setup(tr); err != nil {
		b.Fatal(err)
	}
	st, err := newWorkerState()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		st.session(tgt, tr, &tr.Ops[i%len(tr.Ops)], false)
	}
	if st.errors > 0 {
		b.Fatalf("%d errors: %v", st.errors, st.samples)
	}
}

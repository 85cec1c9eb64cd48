package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"banditware/internal/loadgen"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		// Two children overlapping each other, [10, 60] together, and one
		// running past the parent's end, of which [90, 100] counts.
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild covers part of span 2 only.
		{ID: 5, Parent: 2, Start: 15, End: 25},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}

func TestCoveredMergesNestedAndDisjointIntervals(t *testing.T) {
	ivs := [][2]int64{{50, 60}, {0, 10}, {2, 5}, {8, 20}, {70, 200}}
	if got := covered(0, 100, ivs); got != 20+10+30 {
		t.Fatalf("covered = %d, want 60", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Fatalf("covered with no children = %d", got)
	}
}

func TestRegretRatioOnThreeOps(t *testing.T) {
	ops := []struct {
		runtimes []float64
		arm      int
	}{
		{[]float64{10, 20, 30}, 1}, // regret 10, best 10
		{[]float64{5, 4, 6}, 1},    // regret 0, best 4
		{[]float64{8, 2, 9}, 2},    // regret 7, best 2
	}
	// Spread over two workers and two groups, with a fourth session past
	// the budget that must not count: the merge pools the rest.
	ws := []*worker{{}, {}}
	for i, op := range ops {
		ws[i%2].redeemed(i, len(ops), i%2, nil, op.runtimes, op.arm)
	}
	ws[1].redeemed(len(ops), len(ops), 0, nil, []float64{1, 100}, 1)
	got := mergeWorkers(ws).regret.total().ratio()
	if want := 17.0 / 16.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("regret ratio %v, want %v", got, want)
	}
	var none regretSum
	if none.ratio() != 0 {
		t.Fatal("empty regret should read 0")
	}
}

func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const (
		n     = 40
		gap   = 2 * time.Millisecond
		stall = 5 // op index that stalls
		hold  = 40 * time.Millisecond
	)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i+1) * gap
	}
	type timing struct{ due, released, send, done time.Time }
	got := make([]timing, n)
	var mu sync.Mutex
	start := time.Now()
	runOpen(start, due, 1, func(_, i int, d, released, send time.Time) {
		if i == stall {
			time.Sleep(hold)
		}
		mu.Lock()
		got[i] = timing{d, released, send, time.Now()}
		mu.Unlock()
	})
	// Slices of 1 s put every op in the first one.
	sched := schedule{start: start, measure: windows * time.Second, phases: 1}
	rec := newPhaseRec(1, n)
	for _, g := range got {
		_, win := sched.at(g.due)
		rec.recommend(win, g.done.Sub(g.due), true, 10*time.Millisecond)
		rec.genLate.add(g.released.Sub(g.due), &rec.rnd)
	}

	// The op after the stall was due 2 ms after it started but could only
	// be sent once it finished: from its due time it waited ~38 ms, though
	// its own send-to-done time is tiny.
	next := got[stall+1]
	if wait := next.send.Sub(next.due); wait < hold-gap-5*time.Millisecond {
		t.Errorf("op after the stall queued %v, want about %v", wait, hold-gap)
	}
	if lat := next.done.Sub(next.due); lat < hold-gap-5*time.Millisecond {
		t.Errorf("due-time latency %v hides the stall", lat)
	}
	if own := next.done.Sub(next.send); own > 5*time.Millisecond {
		t.Errorf("send-to-done %v should not include the stall", own)
	}
	// The generator kept to the schedule while the worker stalled.
	late := append([]uint32(nil), rec.genLate.vals...)
	if p50 := quantile(late, 0.5); p50 > float64(2*time.Millisecond) {
		t.Errorf("median generator lateness %v", time.Duration(p50))
	}
	// Stalled ops pull the latency tail up and out of the limit.
	sum := summarize([]*phaseRec{rec}, sched.measure, nil, false)
	if sum.recP99 < float64((hold - gap - 5*time.Millisecond).Microseconds()) {
		t.Errorf("p99 %vus does not show the stall", sum.recP99)
	}
	if sum.withinLimit >= 1 {
		t.Errorf("within-limit share %v, want stalled ops to miss the limit", sum.withinLimit)
	}
}

func TestScheduleAt(t *testing.T) {
	s := schedule{start: time.Unix(0, 0), warm: 2 * time.Second, measure: 10 * time.Second, phases: 2}
	cases := []struct {
		off       time.Duration
		phase, wi int
	}{
		{time.Second, -1, 0},
		{2 * time.Second, 0, 0},
		{2*time.Second + 9999*time.Millisecond, 0, windows - 1},
		{12 * time.Second, 1, 0},
		{17 * time.Second, 1, windows / 2},
		{22 * time.Second, 2, 0},
	}
	for _, c := range cases {
		ph, wi := s.at(s.start.Add(c.off))
		if ph != c.phase || wi != c.wi {
			t.Errorf("at %v: phase %d window %d, want %d %d", c.off, ph, wi, c.phase, c.wi)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, set := range []struct {
		name       string
		code, file []metricDef
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		if len(set.code) != len(set.file) {
			t.Errorf("%s: code declares %d metrics, BENCHMARK.json %d", set.name, len(set.code), len(set.file))
		}
		for i := range min(len(set.code), len(set.file)) {
			if set.code[i] != set.file[i] {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", set.name, i, set.code[i], set.file[i])
			}
		}
		for _, d := range set.code {
			if !metricName.MatchString(d.Name) || len(d.Name) > 64 {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]{1,64}", d.Name)
			}
		}
	}
	// Every gated workload runs under its name, and its why states the
	// latency limit that lives in the code.
	for _, fw := range b.Workloads {
		i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == fw.Name })
		if i < 0 {
			t.Errorf("BENCHMARK.json workload %q has no driver", fw.Name)
			continue
		}
		if limit := fmt.Sprintf("limit %dus", workloads[i].limit.Microseconds()); !strings.Contains(fw.Why, limit) {
			t.Errorf("%s: why does not state %q: %s", fw.Name, limit, fw.Why)
		}
	}
}

// TestEmittedMetricsAreDeclared runs the metric assembly on a synthetic
// traced run: every declared metric is produced and nothing else is.
func TestEmittedMetricsAreDeclared(t *testing.T) {
	tr, err := loadgen.Generate(loadgen.TraceConfig{Seed: 3, Streams: 4, Requests: 600, ObserveRatio: 1})
	if err != nil {
		t.Fatal(err)
	}
	rc := runConfig{seed: 3, seconds: 1, traced: true, workers: 1}
	sched := rc.schedule()
	w := newWorkers(rc, sched, len(tr.Streams))[0]
	for i, op := range tr.Ops {
		ph := i % 2
		w.ph[ph].recommend(i%windows, time.Duration(1000+i), true, time.Millisecond)
		w.ph[ph].observe(i%windows, time.Duration(500+i), true)
		w.redeemed(i, len(tr.Ops), 0, op.Features, op.Runtimes, 0)
	}
	out := &runOutput{trace: tr, setup: []float64{0.1, 0.2}, heapMB: 1, merged: mergeWorkers([]*worker{w}),
		layer: map[string]float64{}}
	for _, recs := range out.merged.phases {
		out.phases = append(out.phases, summarize(recs, sched.measure, nil, false))
	}
	out.spans = []span{
		{ID: 1, Name: spanRecommend, Req: 7, Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: spanSlotWait, Req: 7, Start: 10, End: 12},
		{ID: 3, Parent: 1, Name: spanClientRecommend, Req: 7, Start: 12, End: 90},
		{ID: 4, Parent: 3, Name: spanHTTPRecommend, Req: 7, Start: 30, End: 60},
	}
	out.serveCounts(10, 5, 1)

	e2e, _ := endToEndValues(out)
	if _, err := collect(endToEnd, e2e); err != nil {
		t.Error(err)
	}
	layer, _, checks, err := perLayerValues(out, rc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collect(perLayer, layer); err != nil {
		t.Error(err)
	}
	if len(checks) != 1 || !checks[0].OK {
		t.Errorf("blocking-path check on a gap-free request: %+v", checks)
	}
	for _, v := range e2e {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("non-finite end-to-end value in %v", e2e)
		}
	}
}

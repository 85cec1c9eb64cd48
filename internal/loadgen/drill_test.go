package loadgen

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stepTarget is an in-process target whose drill actions (arm churn
// and replica kill/restart) only log their start and end; every call
// of the action named block waits for release first.
type stepTarget struct {
	*InProc
	block      string
	started    chan struct{} // closed when the first blocked call begins
	once       sync.Once
	release    chan struct{}
	recommends atomic.Int64

	mu  sync.Mutex
	log []string
}

func newStepTarget(block string) *stepTarget {
	return &stepTarget{InProc: NewInProc(), block: block, started: make(chan struct{}), release: make(chan struct{})}
}

func (t *stepTarget) act(verb string) {
	t.mu.Lock()
	t.log = append(t.log, verb+">")
	t.mu.Unlock()
	if verb == t.block {
		t.once.Do(func() { close(t.started) })
		<-t.release
	}
	t.mu.Lock()
	t.log = append(t.log, verb+"<")
	t.mu.Unlock()
}

func (t *stepTarget) Recommend(stream string, op *Op, tr *Trace) (Decision, error) {
	t.recommends.Add(1)
	return t.InProc.Recommend(stream, op, tr)
}

func (t *stepTarget) AddArm(stream, spec, warm string) (int, error) {
	t.act("add")
	return 99, nil
}
func (t *stepTarget) DrainArm(stream string, arm int) error  { t.act("drain"); return nil }
func (t *stepTarget) RetireArm(stream string, arm int) error { t.act("retire"); return nil }
func (t *stepTarget) Replicas() int                          { return 3 }
func (t *stepTarget) Kill(i int) error                       { t.act("kill"); return nil }
func (t *stepTarget) Restart(i int) error                    { t.act("restart"); return nil }

// TestDrillStepsRunInOrder: while one drill step is blocked, the
// worker that claims the next step's op waits for it, so no step starts
// before the one ahead of it has returned. Two closed-loop workers: one
// blocks inside the first step; the other replays every op up to the
// second step's threshold and then claims it.
func TestDrillStepsRunInOrder(t *testing.T) {
	for _, c := range []struct {
		name  string
		opts  RunOptions
		block string
		order []string // verbs in schedule order
		next  int      // the second step's op index over the 400-op trace
	}{
		{"churn add", RunOptions{Churn: true}, "add", []string{"add", "drain", "retire"}, 200},
		{"chaos kill", RunOptions{Chaos: true}, "kill", []string{"kill", "restart"}, 266},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := smokeTrace(t, 0)
			tgt := newStepTarget(c.block)
			c.opts.Concurrency = 2
			done := make(chan error, 1)
			go func() {
				_, err := Run(tgt, tr, c.opts)
				done <- err
			}()
			<-tgt.started
			// The other worker has replayed every op before the second
			// step's threshold; give it room to start that step early.
			deadline := time.Now().Add(10 * time.Second)
			for tgt.recommends.Load() < int64(c.next-1) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			close(tgt.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			// Each start is followed by its own end, and the verbs come in
			// schedule order.
			tgt.mu.Lock()
			defer tgt.mu.Unlock()
			step := 0
			for i := 0; i < len(tgt.log); i += 2 {
				verb := strings.TrimSuffix(tgt.log[i], ">")
				if i+1 >= len(tgt.log) || tgt.log[i+1] != verb+"<" {
					t.Fatalf("%s started and did not return before the next action: %v", verb, tgt.log)
				}
				for step < len(c.order) && c.order[step] != verb {
					step++
				}
				if step == len(c.order) {
					t.Fatalf("%s out of schedule order: %v", verb, tgt.log)
				}
			}
			if last := strings.TrimSuffix(tgt.log[len(tgt.log)-1], "<"); last != c.order[len(c.order)-1] {
				t.Fatalf("drill ended on %s: %v", last, tgt.log)
			}
		})
	}
}

// TestRunChaosIncompleteFails: a chaos run cut short by its Duration
// fails with the same incomplete-drill error as a churn run.
func TestRunChaosIncompleteFails(t *testing.T) {
	for _, opts := range []RunOptions{{Chaos: true}, {Churn: true}} {
		opts.Concurrency, opts.Duration = 2, 1
		tgt := newStepTarget("")
		res, err := Run(tgt, smokeTrace(t, 0), opts)
		if err == nil || !strings.Contains(err.Error(), "loadgen: drill incomplete: 0 of") {
			t.Fatalf("%+v: err = %v, want the incomplete-drill failure", opts, err)
		}
		if res == nil || res.Chaos != opts.Chaos || res.Churn != opts.Churn {
			t.Fatalf("%+v: result %+v does not record its drill", opts, res)
		}
	}
}

package loadgen

import (
	"strings"
	"testing"
)

// TestRunChurnInProc: the drill adds, drains, and retires the churn arm
// on every stream mid-run, the run completes without errors, and the
// result records the full transition count.
func TestRunChurnInProc(t *testing.T) {
	tr := smokeTrace(t, 0)
	tgt := NewInProc()
	defer tgt.Close()
	res, err := Run(tgt, tr, RunOptions{Mode: ModeClosed, Concurrency: 4, Churn: true})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "inproc")
	if !res.Churn {
		t.Error("result does not record churn mode")
	}
	// add + drain + retire on each of the trace's 8 streams.
	if want := uint64(3 * len(tr.Streams)); res.ChurnEvents != want {
		t.Errorf("churn events = %d, want %d", res.ChurnEvents, want)
	}
	// The drill is add-then-retire: every stream ends on its original set.
	for i := range tr.Streams {
		arms, err := tgt.Service.Arms(tr.Streams[i].Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(arms) != len(tr.Hardware) {
			t.Fatalf("stream %s has %d arms after the drill, want the original %d", tr.Streams[i].Name, len(arms), len(tr.Hardware))
		}
		for _, a := range arms {
			if a.Hardware == "churn(8,64)" {
				t.Fatalf("stream %s still carries the churn arm", tr.Streams[i].Name)
			}
		}
	}
}

// TestRunChurnHTTP: the same drill over the wire, through the arm
// lifecycle routes.
func TestRunChurnHTTP(t *testing.T) {
	tr := smokeTrace(t, 0)
	tgt, err := NewSelfHTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	res, err := Run(tgt, tr, RunOptions{Mode: ModeClosed, Concurrency: 4, Churn: true})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "http")
	if !res.Churn || res.ChurnEvents != uint64(3*len(tr.Streams)) {
		t.Errorf("churn marker/events = %v/%d, want true/%d", res.Churn, res.ChurnEvents, 3*len(tr.Streams))
	}
}

// TestRunChurnIncompleteFails: a duration cap that cuts the trace
// before the retire threshold is a run error, not a silent pass — the
// report would otherwise describe a drill that never finished.
func TestRunChurnIncompleteFails(t *testing.T) {
	tr := smokeTrace(t, 0)
	tgt := NewInProc()
	defer tgt.Close()
	_, err := Run(tgt, tr, RunOptions{Mode: ModeClosed, Concurrency: 2, Duration: 1, Churn: true})
	if err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("err = %v, want churn-incomplete failure", err)
	}
}

// TestRunChurnUnsupportedTarget: a target without the ArmChurner
// extension yields a schema-valid failed partial result.
func TestRunChurnUnsupportedTarget(t *testing.T) {
	tr := smokeTrace(t, 0)
	res, err := Run(plainTarget{t: NewInProc()}, tr, RunOptions{Mode: ModeClosed, Churn: true})
	if err == nil {
		t.Fatal("churn against a churn-less target should fail")
	}
	if res == nil || res.Failed == "" || !res.Churn {
		t.Fatalf("partial result = %+v, want Failed and Churn set", res)
	}
}

// plainTarget strips the ArmChurner extension off InProc (explicit
// delegation, not embedding, so the churner methods are not promoted).
type plainTarget struct{ t *InProc }

func (p plainTarget) Name() string { return p.t.Name() }
func (p plainTarget) Setup(tr *Trace) error {
	return p.t.Setup(tr)
}
func (p plainTarget) Recommend(stream string, op *Op, tr *Trace) (Decision, error) {
	return p.t.Recommend(stream, op, tr)
}
func (p plainTarget) RecommendRaw(stream string, op *Op) (Decision, error) {
	return p.t.RecommendRaw(stream, op)
}
func (p plainTarget) Observe(ticket string, runtime float64) error {
	return p.t.Observe(ticket, runtime)
}
func (p plainTarget) ObserveSeq(stream string, seq uint64, runtime float64) error {
	return p.t.ObserveSeq(stream, seq, runtime)
}
func (p plainTarget) Close() error { return p.t.Close() }

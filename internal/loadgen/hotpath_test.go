package loadgen

import (
	"testing"
)

func TestRunClosedLoopHotPath(t *testing.T) {
	tr := smokeTrace(t, 0)
	tgt := NewHotPath()
	defer tgt.Close()
	res, err := Run(tgt, tr, RunOptions{Mode: ModeClosed, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "hotpath")
	stats := tgt.Service.Stats()
	if stats.TotalIssued != 400 {
		t.Errorf("service issued tickets = %d, want 400", stats.TotalIssued)
	}
}

func TestRunRawVectorsHotPath(t *testing.T) {
	tr := smokeTrace(t, 0)
	tgt := NewHotPath()
	defer tgt.Close()
	res, err := Run(tgt, tr, RunOptions{Mode: ModeClosed, Concurrency: 2, Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "hotpath")
}

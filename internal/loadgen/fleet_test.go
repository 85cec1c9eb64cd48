package loadgen

import (
	"testing"
)

// TestFleetTargetChaosRun drives a small trace through the fleet
// target with the chaos drill enabled: the run must complete, the
// drill must reach both of its thresholds (Run errors otherwise),
// and the error count must stay inside the failover-window bound.
func TestFleetTargetChaosRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 3-replica fleet over loopback")
	}
	tr, err := Generate(TraceConfig{
		Seed:         3,
		App:          "cycles",
		Streams:      8,
		Requests:     300,
		ZipfSkew:     1.1,
		ObserveRatio: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := NewFleet(FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tgt, tr, RunOptions{Mode: ModeClosed, Concurrency: 4, Chaos: true})
	if cerr := tgt.Close(); cerr != nil {
		t.Fatalf("fleet close: %v", cerr)
	}
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Target != "fleet" {
		t.Fatalf("target name = %q", res.Target)
	}
	if !res.Chaos {
		t.Fatal("result does not record the chaos drill")
	}
	if max := uint64(len(tr.Ops)) / 10; res.Errors > max {
		t.Fatalf("%d of %d ops errored in the failover window, tolerate at most %d",
			res.Errors, len(tr.Ops), max)
	}
}

func TestFleetTargetChaosNeedsPeers(t *testing.T) {
	tgt, err := NewFleet(FleetConfig{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	if _, err := Run(tgt, smokeTrace(t, 0), RunOptions{Chaos: true}); err == nil {
		t.Fatal("chaos drill with a single replica must be rejected")
	}
}

package experiment

import (
	"runtime"
	"testing"

	"banditware/internal/core"
	"banditware/internal/workloads"
)

// TestParallelMatchesSerial: RunBandit's results are bit-identical
// whatever the worker count, which follows GOMAXPROCS.
func TestParallelMatchesSerial(t *testing.T) {
	d, err := workloads.GenerateCycles(workloads.CyclesOptions{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	base := BanditConfig{
		Dataset: d,
		Options: core.Options{ToleranceSeconds: 20},
		NRounds: 30,
		NSim:    8,
		Seed:    41,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sres, err := RunBandit(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		runtime.GOMAXPROCS(workers)
		pres, err := RunBandit(base)
		if err != nil {
			t.Fatal(err)
		}
		for r := range sres.Rounds {
			if sres.Rounds[r] != pres.Rounds[r] {
				t.Fatalf("workers=%d: round %d diverged: %+v vs %+v",
					workers, r, sres.Rounds[r], pres.Rounds[r])
			}
		}
		if len(pres.FinalModels) != len(sres.FinalModels) {
			t.Fatal("final model count diverged")
		}
		for i := range sres.FinalModels {
			if sres.FinalModels[i].Bias != pres.FinalModels[i].Bias {
				t.Fatalf("workers=%d: final model %d diverged", workers, i)
			}
		}
	}
}

func TestParallelMoreWorkersThanSims(t *testing.T) {
	d, err := workloads.GenerateCycles(workloads.CyclesOptions{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	res, err := RunBandit(BanditConfig{
		Dataset: d,
		NRounds: 5,
		NSim:    2,
		Seed:    43,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 5 {
		t.Fatal("truncated result")
	}
}

package banditware

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"banditware/internal/cluster"
	"banditware/internal/rng"
)

// TestEndToEndLifecycle exercises the full deployment story: synthesise a
// historical trace, persist it as CSV, bootstrap a recommender offline
// from the reloaded trace, continue learning online inside the simulated
// cluster, persist the recommender, restore it, and check it still
// recommends sensibly.
func TestEndToEndLifecycle(t *testing.T) {
	trace, err := GenerateCycles(CyclesOptions{Seed: 81})
	if err != nil {
		t.Fatal(err)
	}

	// Persist + reload the history (the Figure-1 input path).
	path := filepath.Join(t.TempDir(), "history.csv")
	if err := WriteTraceCSV(trace, path); err != nil {
		t.Fatal(err)
	}
	history, err := ReadTraceCSV(path, trace.FeatureNames)
	if err != nil {
		t.Fatal(err)
	}

	// Offline bootstrap.
	rec, err := FitOffline(history, Options{Seed: 82, Alpha: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	bootRounds := rec.Round()
	if bootRounds != len(trace.Runs) {
		t.Fatalf("bootstrap absorbed %d rounds, want %d", bootRounds, len(trace.Runs))
	}

	// Online phase inside the cluster simulator.
	specs := make([]cluster.NodeSpec, len(trace.Hardware))
	for i, hw := range trace.Hardware {
		specs[i] = cluster.NodeSpec{Config: hw, Count: 3, Slots: 4}
	}
	cl, err := cluster.New(cluster.Options{Nodes: specs})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(83)
	arrivals := make([]cluster.Arrival, 120)
	tm := 0.0
	for i := range arrivals {
		tm += r.Exp(1.0 / 200)
		arrivals[i] = cluster.Arrival{
			ID: i, Time: tm,
			Features: []float64{float64(100 + r.Intn(401))},
		}
	}
	noise := rng.New(84)
	m, jobs, err := cl.RunOnline(arrivals,
		func(x []float64) (int, error) {
			d, err := rec.Recommend(x)
			return d.Arm, err
		},
		func(arm int, x []float64) float64 {
			rt := trace.SampleRuntime(arm, x, noise)
			if rt < 1 {
				rt = 1
			}
			return rt
		},
		func(arm int, x []float64, rt float64) error { return rec.Observe(arm, x, rt) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 120 || len(jobs) != 120 {
		t.Fatalf("cluster completed %d jobs", m.Completed)
	}
	if rec.Round() != bootRounds+120 {
		t.Fatalf("online phase absorbed %d rounds", rec.Round()-bootRounds)
	}

	// Persist, restore, verify recommendations survive.
	statePath := filepath.Join(t.TempDir(), "state.json")
	f, err := os.Create(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	in, err := os.Open(statePath)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Load(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tasks := range []float64{100, 500} {
		a1, err := rec.Exploit([]float64{tasks})
		if err != nil {
			t.Fatal(err)
		}
		a2, err := restored.Exploit([]float64{tasks})
		if err != nil {
			t.Fatal(err)
		}
		if a1 != a2 {
			t.Fatalf("restored recommender disagrees at %v tasks: %d vs %d", tasks, a1, a2)
		}
		if best := trace.BestArm([]float64{tasks}, 0, 0); a1 != best {
			t.Fatalf("at %v tasks recommends arm %d, truth %d", tasks, a1, best)
		}
	}

	// Confidence intervals are finite for arms with data.
	ivs, err := rec.PredictWithCI([]float64{250}, 0)
	if err != nil {
		t.Fatal(err)
	}
	finite := 0
	for _, iv := range ivs {
		if !math.IsInf(iv.Hi, 1) {
			finite++
		}
	}
	if finite == 0 {
		t.Fatal("no arm has a finite interval after 200 observations")
	}
}

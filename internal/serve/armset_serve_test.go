package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"banditware/internal/core"
	"banditware/internal/hardware"
)

// churnRuntime is the noiseless per-arm runtime surface the churn tests
// share: a flat per-arm base plus a small feature slope, so the ranking
// is unambiguous at every context.
func churnRuntime(bases []float64, arm int, x float64) float64 {
	return bases[arm] + 0.1*x
}

// churnServe drives rounds of Recommend/Observe traffic against one
// stream and returns how often each arm was recommended.
func churnServe(t *testing.T, s *Service, name string, bases []float64, rounds int) []int {
	t.Helper()
	counts := make([]int, len(bases))
	for i := 0; i < rounds; i++ {
		x := float64(i%10 + 1)
		tk, err := s.Recommend(name, []float64{x})
		if err != nil {
			t.Fatal(err)
		}
		counts[tk.Arm]++
		if err := s.Observe(tk.ID, churnRuntime(bases, tk.Arm, x)); err != nil {
			t.Fatal(err)
		}
	}
	return counts
}

// TestArmChurnConvergesWithoutRestart is the arm-elasticity acceptance
// test: a live stream gains a strictly better hardware configuration
// mid-trace and converges onto it without being recreated; the favourite
// is then drained and retired and the stream re-converges onto the
// runner-up. Round and observation counters run continuously through
// both churn events, proving no state was dropped.
func TestArmChurnConvergesWithoutRestart(t *testing.T) {
	s := NewService(ServiceOptions{})
	if err := s.CreateStream("jobs", StreamConfig{
		Hardware: testHW(), Dim: 1,
		Options: core.Options{Seed: 17, MinEpsilon: 0.1},
	}); err != nil {
		t.Fatal(err)
	}
	bases := []float64{50, 60, 70}
	churnServe(t, s, "jobs", bases, 200)
	if best, err := s.Exploit("jobs", []float64{5}); err != nil || best != 0 {
		t.Fatalf("pre-churn favourite = %d (err %v), want arm 0", best, err)
	}
	preRound := infoOf(t, s, "jobs").Round

	// A strictly better configuration joins mid-trace, warm-started from
	// the pooled statistics of the existing arms.
	idx, err := s.AddArm("jobs", ArmAdd{
		Hardware: hardware.Config{Name: "H3", CPUs: 8, MemoryGB: 64},
		Warm:     "pooled",
	})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 3 {
		t.Fatalf("new arm index = %d, want 3", idx)
	}
	bases = append(bases, 20) // strictly dominates every incumbent

	churnServe(t, s, "jobs", bases, 600)
	if best, err := s.Exploit("jobs", []float64{5}); err != nil || best != idx {
		t.Fatalf("post-add favourite = %d (err %v), want new arm %d", best, err, idx)
	}
	// Pinned convergence margin: with ε floored at 0.05, at least 80% of
	// steady-state traffic lands on the dominant new arm.
	counts := churnServe(t, s, "jobs", bases, 100)
	if frac := float64(counts[idx]) / 100; frac < 0.8 {
		t.Fatalf("new arm served %.0f%% of steady-state traffic, want ≥ 80%%", frac*100)
	}

	// The stream was never recreated: rounds kept counting.
	midRound := infoOf(t, s, "jobs").Round
	if midRound <= preRound {
		t.Fatalf("round went %d -> %d across the add — stream state was reset", preRound, midRound)
	}

	// Retire the favourite: drain first (live traffic reroutes, pending
	// tickets still resolve), then remove it entirely.
	if err := s.DrainArm("jobs", idx); err != nil {
		t.Fatal(err)
	}
	drainCounts := churnServe(t, s, "jobs", bases, 60)
	if drainCounts[idx] != 0 {
		t.Fatalf("draining arm %d still served %d requests", idx, drainCounts[idx])
	}
	if err := s.RetireArm("jobs", idx); err != nil {
		t.Fatal(err)
	}
	bases = bases[:3]

	churnServe(t, s, "jobs", bases, 200)
	if best, err := s.Exploit("jobs", []float64{5}); err != nil || best != 0 {
		t.Fatalf("post-retire favourite = %d (err %v), want runner-up arm 0", best, err)
	}
	info, err := s.StreamInfo("jobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Hardware) != 3 || info.ArmStates != nil {
		t.Fatalf("post-retire stream: %d arms, states %v — want 3 all-active arms",
			len(info.Hardware), info.ArmStates)
	}
	if info.Round <= midRound {
		t.Fatalf("round went %d -> %d across the retire — stream state was reset", midRound, info.Round)
	}
}

// TestArmLifecycleTransitions pins the transition rules: retiring an
// active arm is rejected, draining the last active arm is rejected, a
// trial arm never serves until promoted, and out-of-range indices map to
// ErrArmNotFound.
func TestArmLifecycleTransitions(t *testing.T) {
	s := NewService(ServiceOptions{})
	if err := s.CreateStream("jobs", StreamConfig{
		Hardware: testHW()[:2], Dim: 1,
		Options: core.Options{Seed: 5, ZeroEpsilon: true},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RetireArm("jobs", 0); !errors.Is(err, ErrArmLifecycle) {
		t.Fatalf("retiring an active arm: %v, want ErrArmLifecycle", err)
	}
	if err := s.DrainArm("jobs", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.DrainArm("jobs", 1); !errors.Is(err, ErrArmLifecycle) {
		t.Fatalf("draining the last active arm: %v, want ErrArmLifecycle", err)
	}
	if err := s.DrainArm("jobs", 7); !errors.Is(err, ErrArmNotFound) {
		t.Fatalf("draining arm 7 of 2: %v, want ErrArmNotFound", err)
	}
	if err := s.PromoteArm("jobs", 0); err != nil {
		t.Fatal(err)
	}

	// Train arm ranking: trial arm would win on merit but must not serve.
	for i := 0; i < 30; i++ {
		x := []float64{float64(i%5 + 1)}
		for arm := 0; arm < 2; arm++ {
			if err := s.ObserveDirectOutcome("jobs", arm, x, Outcome{Runtime: 50 + 10*float64(arm)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	idx, err := s.AddArm("jobs", ArmAdd{
		Hardware: hardware.Config{Name: "HT", CPUs: 8, MemoryGB: 64},
		Trial:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	arms, err := s.Arms("jobs")
	if err != nil {
		t.Fatal(err)
	}
	if arms[idx].Status != "trial" {
		t.Fatalf("added arm status = %q, want trial", arms[idx].Status)
	}
	// The trial arm learns (it is strictly best) but is never chosen.
	for i := 0; i < 40; i++ {
		x := []float64{float64(i%5 + 1)}
		if err := s.ObserveDirectOutcome("jobs", idx, x, Outcome{Runtime: 10}); err != nil {
			t.Fatal(err)
		}
		tk, err := s.Recommend("jobs", x)
		if err != nil {
			t.Fatal(err)
		}
		if tk.Arm == idx {
			t.Fatalf("trial arm %d served live traffic", idx)
		}
		if err := s.Observe(tk.ID, 50+10*float64(tk.Arm)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PromoteArm("jobs", idx); err != nil {
		t.Fatal(err)
	}
	if best, err := s.Exploit("jobs", []float64{3}); err != nil || best != idx {
		t.Fatalf("promoted trial arm: exploit = %d (err %v), want %d", best, err, idx)
	}
	tk, err := s.Recommend("jobs", []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Arm != idx {
		t.Fatalf("promoted arm not served: got arm %d, want %d", tk.Arm, idx)
	}
}

// TestDrainedArmReroutes: with exploration off, a drained favourite's
// traffic reroutes to the best remaining active arm, and promoting it
// back restores it.
func TestDrainedArmReroutes(t *testing.T) {
	s := NewService(ServiceOptions{})
	if err := s.CreateStream("jobs", StreamConfig{
		Hardware: testHW(), Dim: 1,
		Options: core.Options{Seed: 5, ZeroEpsilon: true},
	}); err != nil {
		t.Fatal(err)
	}
	// Arm 1 best, arm 2 runner-up, arm 0 worst.
	for i := 0; i < 30; i++ {
		x := []float64{float64(i%5 + 1)}
		for arm, rt := range []float64{70, 30, 40} {
			if err := s.ObserveDirectOutcome("jobs", arm, x, Outcome{Runtime: rt}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.DrainArm("jobs", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tk, err := s.Recommend("jobs", []float64{float64(i%5 + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if tk.Arm != 2 {
			t.Fatalf("drained favourite: recommendation went to arm %d, want runner-up 2", tk.Arm)
		}
	}
	if err := s.PromoteArm("jobs", 1); err != nil {
		t.Fatal(err)
	}
	tk, err := s.Recommend("jobs", []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Arm != 1 {
		t.Fatalf("promoted favourite: recommendation went to arm %d, want 1", tk.Arm)
	}
}

// TestAddArmWarmStart: a warm-started arm ranks sensibly from its first
// request (its prediction tracks the donor's), while a cold add starts
// from the ridge prior alone.
func TestAddArmWarmStart(t *testing.T) {
	mk := func(t *testing.T) *Service {
		s := NewService(ServiceOptions{})
		if err := s.CreateStream("jobs", StreamConfig{
			Hardware: testHW(), Dim: 1,
			Options: core.Options{Seed: 5, ZeroEpsilon: true},
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			x := []float64{float64(i%5 + 1)}
			for arm, rt := range []float64{50, 60, 70} {
				if err := s.ObserveDirectOutcome("jobs", arm, x, Outcome{Runtime: rt}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}

	t.Run("nearest", func(t *testing.T) {
		s := mk(t)
		// {4, 17} is nearest H2 (4 CPUs, 16 GB) in feature space.
		idx, err := s.AddArm("jobs", ArmAdd{
			Hardware: hardware.Config{Name: "H3", CPUs: 4, MemoryGB: 17},
			Warm:     "nearest", WarmWeight: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		preds, err := s.PredictAll("jobs", []float64{3})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(preds[idx]-preds[2]) > 5 {
			t.Fatalf("nearest-warmed arm predicts %.1f, donor H2 predicts %.1f — want within 5",
				preds[idx], preds[2])
		}
	})
	t.Run("pooled", func(t *testing.T) {
		s := mk(t)
		idx, err := s.AddArm("jobs", ArmAdd{
			Hardware: hardware.Config{Name: "H3", CPUs: 8, MemoryGB: 64},
			Warm:     "pooled",
		})
		if err != nil {
			t.Fatal(err)
		}
		preds, err := s.PredictAll("jobs", []float64{3})
		if err != nil {
			t.Fatal(err)
		}
		mean := (preds[0] + preds[1] + preds[2]) / 3
		if math.Abs(preds[idx]-mean) > 5 {
			t.Fatalf("pool-warmed arm predicts %.1f, donor mean %.1f — want within 5", preds[idx], mean)
		}
	})
	t.Run("cold", func(t *testing.T) {
		s := mk(t)
		idx, err := s.AddArm("jobs", ArmAdd{
			Hardware: hardware.Config{Name: "H3", CPUs: 8, MemoryGB: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		preds, err := s.PredictAll("jobs", []float64{3})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(preds[idx]) > 1 {
			t.Fatalf("cold arm predicts %.2f, want ≈ 0 (ridge prior only)", preds[idx])
		}
	})
	t.Run("bad requests", func(t *testing.T) {
		s := mk(t)
		if _, err := s.AddArm("jobs", ArmAdd{
			Hardware: hardware.Config{Name: "H3", CPUs: 8, MemoryGB: 64},
			Warm:     "sideways",
		}); !errors.Is(err, ErrBadArmRequest) {
			t.Fatalf("unknown warm mode: %v, want ErrBadArmRequest", err)
		}
		if _, err := s.AddArm("jobs", ArmAdd{
			Hardware:   hardware.Config{Name: "H3", CPUs: 8, MemoryGB: 64},
			Warm:       "pooled",
			WarmWeight: 1.5,
		}); !errors.Is(err, ErrBadArmRequest) {
			t.Fatalf("warm weight 1.5: %v, want ErrBadArmRequest", err)
		}
		if _, err := s.AddArm("jobs", ArmAdd{
			Hardware: hardware.Config{Name: "H0", CPUs: 8, MemoryGB: 64},
		}); !errors.Is(err, ErrBadArmRequest) {
			t.Fatalf("duplicate hardware name: %v, want ErrBadArmRequest", err)
		}
	})
}

// TestConcurrentChurnAndServe hammers the serving paths from several
// goroutines while the main goroutine churns the arm set through add,
// drain, promote, and retire cycles. Run under -race (CI does), this
// pins the locking discipline of the lifecycle paths; observation errors
// from tickets evicted by a concurrent retire are expected and ignored.
func TestConcurrentChurnAndServe(t *testing.T) {
	s := NewService(ServiceOptions{})
	if err := s.CreateStream("jobs", StreamConfig{
		Hardware: testHW(), Dim: 1,
		Options: core.Options{Seed: 3, MinEpsilon: 0.1},
	}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				x := []float64{float64((i+g)%8 + 1)}
				tk, err := s.Recommend("jobs", x)
				if err != nil {
					continue
				}
				// The arm set can shift underneath us; the ledger re-indexes
				// pending tickets, so observing by ID stays safe — evicted
				// tickets just report an error.
				_ = s.Observe(tk.ID, 40+float64(tk.Arm))
				_, _ = s.Exploit("jobs", x)
			}
		}(g)
	}
	for cycle := 0; cycle < 20; cycle++ {
		idx, err := s.AddArm("jobs", ArmAdd{
			Hardware: hardware.Config{Name: fmt.Sprintf("C%d", cycle), CPUs: 5 + cycle%3, MemoryGB: 32},
			Warm:     "pooled",
			Trial:    cycle%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		if cycle%2 == 0 {
			if err := s.PromoteArm("jobs", idx); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.DrainArm("jobs", idx); err != nil {
			t.Fatal(err)
		}
		if err := s.RetireArm("jobs", idx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	arms, err := s.Arms("jobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(arms) != 3 {
		t.Fatalf("after 20 add/retire cycles: %d arms, want the original 3", len(arms))
	}
}

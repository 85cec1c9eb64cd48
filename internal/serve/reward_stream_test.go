package serve

// Reward-pipeline coverage: structured outcomes end to end — the
// cost_weighted acceptance scenario (a cost-aware stream converges to
// cheaper hardware than a runtime stream on the same workload), outcome
// validation ahead of ticket redemption, per-stream reward aggregates,
// shadows replaying outcomes through their own rewards, and v4 snapshot
// round-trips of reward state.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"banditware/internal/core"
	"banditware/internal/hardware"
	"banditware/internal/schema"
)

// rewardTestHW returns a two-arm set where the fast machine is far more
// expensive: cheap Cost = 2 + 16/4 = 6, fast Cost = 16 + 64/4 = 32.
func rewardTestHW() hardware.Set {
	return hardware.Set{
		{Name: "cheap", CPUs: 2, MemoryGB: 16},
		{Name: "fast", CPUs: 16, MemoryGB: 64},
	}
}

// rewardTestRuntime is the ground truth both streams observe: the fast
// machine is slightly faster (8s vs 10s base), so a pure-runtime
// learner must prefer it while a cost-weighted learner must not
// (cheap scores 10 + 6 = 16, fast 8 + 32 = 40 at λ = 1).
func rewardTestRuntime(arm int, x float64) float64 {
	if arm == 1 {
		return 8 + 0.01*x
	}
	return 10 + 0.01*x
}

// TestCostWeightedConvergesToCheaperArm is the acceptance scenario: two
// streams with identical policies, seeds, and traffic — one learning
// from raw runtime, one from the cost_weighted reward — and the
// cost-aware stream demonstrably settles on the cheaper arm while the
// runtime stream settles on the faster, more expensive one.
func TestCostWeightedConvergesToCheaperArm(t *testing.T) {
	s := NewService(ServiceOptions{})
	for name, rw := range map[string]RewardSpec{
		"by-runtime": {},
		"by-cost":    {Type: RewardCostWeighted, Lambda: 1},
	} {
		if err := s.CreateStream(name, StreamConfig{
			Hardware: rewardTestHW(), Dim: 1,
			Options: core.Options{Seed: 11},
			Reward:  rw,
		}); err != nil {
			t.Fatal(err)
		}
	}

	hw := rewardTestHW()
	costTotal := map[string]float64{}
	const rounds = 300
	for i := 0; i < rounds; i++ {
		x := float64(i%17 + 1)
		for _, name := range []string{"by-runtime", "by-cost"} {
			tk, err := s.Recommend(name, []float64{x})
			if err != nil {
				t.Fatal(err)
			}
			costTotal[name] += hw[tk.Arm].Cost()
			if err := s.ObserveOutcome(tk.ID, Outcome{Runtime: rewardTestRuntime(tk.Arm, x)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Exploitation choices after learning: the runtime stream wants the
	// fast arm, the cost-weighted stream the cheap one.
	rtArm, err := s.Exploit("by-runtime", []float64{9})
	if err != nil {
		t.Fatal(err)
	}
	costArm, err := s.Exploit("by-cost", []float64{9})
	if err != nil {
		t.Fatal(err)
	}
	if rtArm != 1 {
		t.Fatalf("runtime stream exploits arm %d (%s), want 1 (fast)", rtArm, hw[rtArm].Name)
	}
	if costArm != 0 {
		t.Fatalf("cost_weighted stream exploits arm %d (%s), want 0 (cheap)", costArm, hw[costArm].Name)
	}
	// And the whole trajectory spent less hardware: same seeds, same
	// exploration schedule, so the difference is purely the reward.
	if costTotal["by-cost"] >= costTotal["by-runtime"] {
		t.Fatalf("cost stream spent %.0f cost units vs runtime stream's %.0f — not cheaper",
			costTotal["by-cost"], costTotal["by-runtime"])
	}

	// Aggregates: the cost stream's reward total carries the λ·Cost
	// surcharge, so it must exceed its runtime total; the runtime
	// stream's two totals are identical.
	costInfo, _ := s.StreamInfo("by-cost")
	rtInfo, _ := s.StreamInfo("by-runtime")
	if costInfo.RewardTotal <= costInfo.RuntimeTotal {
		t.Fatalf("cost stream totals: reward %.1f <= runtime %.1f", costInfo.RewardTotal, costInfo.RuntimeTotal)
	}
	if rtInfo.RewardTotal != rtInfo.RuntimeTotal {
		t.Fatalf("runtime stream totals diverged: reward %.1f, runtime %.1f", rtInfo.RewardTotal, rtInfo.RuntimeTotal)
	}
	if costInfo.Reward.Type != RewardCostWeighted || costInfo.Reward.Lambda != 1 {
		t.Fatalf("cost stream reward spec = %+v", costInfo.Reward)
	}
	stats := s.Stats()
	if stats.TotalReward != costInfo.RewardTotal+rtInfo.RewardTotal {
		t.Fatalf("stats.TotalReward = %.1f, want %.1f", stats.TotalReward, costInfo.RewardTotal+rtInfo.RewardTotal)
	}
	if stats.TotalRuntime != costInfo.RuntimeTotal+rtInfo.RuntimeTotal {
		t.Fatalf("stats.TotalRuntime = %.1f", stats.TotalRuntime)
	}
}

// TestBadOutcomeDoesNotBurnTicket: negative runtimes and malformed
// metrics are rejected with ErrBadOutcome *before* the ticket is
// redeemed — the same ticket then observes cleanly — and the direct
// path rejects identically without touching the model.
func TestBadOutcomeDoesNotBurnTicket(t *testing.T) {
	s := newTestService(t, ServiceOptions{}, "jobs")
	tk, err := s.Recommend("jobs", []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Outcome{
		{Runtime: -5},
		{Runtime: 10, Metrics: map[string]float64{"memoryGB": 1}},
		{Runtime: 10, Metrics: map[string]float64{"memory_gb": -1}},
	}
	for _, o := range bad {
		if err := s.ObserveOutcome(tk.ID, o); !errors.Is(err, ErrBadOutcome) {
			t.Fatalf("ObserveOutcome(%+v) = %v, want ErrBadOutcome", o, err)
		}
	}
	// The scalar path hits the same validation.
	if err := s.Observe(tk.ID, -5); !errors.Is(err, ErrBadOutcome) {
		t.Fatalf("Observe(-5) = %v, want ErrBadOutcome", err)
	}
	info, _ := s.StreamInfo("jobs")
	if info.Observed != 0 || info.Pending != 1 || info.Round != 0 {
		t.Fatalf("rejected outcomes changed state: %+v", info)
	}
	// The ticket survived every rejection.
	if err := s.ObserveOutcome(tk.ID, Outcome{Runtime: 42}); err != nil {
		t.Fatalf("valid observe after rejections: %v", err)
	}

	// Direct observations validate the same way.
	if err := s.ObserveDirectOutcome("jobs", 0, []float64{5}, Outcome{Runtime: -1}); !errors.Is(err, ErrBadOutcome) {
		t.Fatalf("ObserveDirectOutcome(-1) = %v, want ErrBadOutcome", err)
	}
	if n := infoOf(t, s, "jobs").Round; n != 1 {
		t.Fatalf("round = %d after rejected direct observe, want 1", n)
	}

	// Batch: a bad outcome — or an ambiguous runtime+outcome pair, the
	// same rule the single HTTP route applies — fails only its own
	// index.
	tks, err := s.recommendBatch("jobs", [][]float64{{1}, {2}, {3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	applied, errs := s.observeBatch("jobs", []ticketObservation{
		{TicketID: tks[0].ID, Outcome: &Outcome{Runtime: -3}},
		{TicketID: tks[1].ID, Runtime: 7},
		{TicketID: tks[2].ID, Runtime: 7, Outcome: &Outcome{Runtime: 8}},
	})
	if applied != 1 || !errors.Is(errs[0], ErrBadOutcome) || errs[1] != nil || !errors.Is(errs[2], ErrBadOutcome) {
		t.Fatalf("batch: applied=%d errs=%v", applied, errs)
	}
	// Neither rejected index burned its ticket.
	for _, id := range []string{tks[0].ID, tks[2].ID} {
		if err := s.Observe(id, 3); err != nil {
			t.Fatalf("batch-rejected ticket %s burned: %v", id, err)
		}
	}
}

// TestObserveDirectRejectsBadArm: a caller-supplied arm outside the
// hardware set fails with core.ErrArm on every direct path (the reward
// lookup must not index it first).
func TestObserveDirectRejectsBadArm(t *testing.T) {
	s := newTestService(t, ServiceOptions{}, "jobs")
	for _, arm := range []int{-1, 3, 99} {
		if err := s.ObserveDirectOutcome("jobs", arm, []float64{1}, Outcome{Runtime: 5}); !errors.Is(err, core.ErrArm) {
			t.Fatalf("ObserveDirectOutcome(arm=%d) = %v, want ErrArm", arm, err)
		}
		ctx := schema.Num(map[string]float64{"x0": 1})
		if err := s.observeDirect("jobs", arm, nil, &ctx, Outcome{Runtime: 5}); !errors.Is(err, core.ErrArm) {
			t.Fatalf("observeDirect(arm=%d, context) = %v, want ErrArm", arm, err)
		}
	}
	if n := infoOf(t, s, "jobs").Round; n != 0 {
		t.Fatalf("round advanced on rejected arms: %d", n)
	}
}

// TestFailurePenaltySteersAwayFromFailingArm: an arm that fails fast
// must lose to a slower arm that succeeds, under the failure_penalty
// reward.
func TestFailurePenaltySteersAwayFromFailingArm(t *testing.T) {
	s := NewService(ServiceOptions{})
	if err := s.CreateStream("flaky", StreamConfig{
		Hardware: rewardTestHW(), Dim: 1,
		Options: core.Options{Seed: 3},
		Reward:  RewardSpec{Type: RewardFailurePenalty, Penalty: 200},
	}); err != nil {
		t.Fatal(err)
	}
	failed := false
	for i := 0; i < 200; i++ {
		x := float64(i%13 + 1)
		tk, err := s.Recommend("flaky", []float64{x})
		if err != nil {
			t.Fatal(err)
		}
		// Arm 1 (fast) runs in 2s but always fails; arm 0 (cheap) takes
		// 30s and succeeds.
		o := Outcome{Runtime: 30}
		if tk.Arm == 1 {
			o = Outcome{Runtime: 2, Success: &failed}
		}
		if err := s.ObserveOutcome(tk.ID, o); err != nil {
			t.Fatal(err)
		}
	}
	arm, err := s.Exploit("flaky", []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if arm != 0 {
		t.Fatalf("failure_penalty stream exploits the always-failing arm %d", arm)
	}
	info, _ := s.StreamInfo("flaky")
	if info.Failures == 0 {
		t.Fatal("failures counter never advanced")
	}
	if info.RewardTotal <= info.RuntimeTotal {
		t.Fatalf("failure penalties missing from reward total: %+v", info)
	}
}

// TestShadowOwnRewardReplay: a shadow carrying its own RewardSpec
// scores the same outcomes differently from the stream, and its replay
// counters reflect its reward, not the stream's.
func TestShadowOwnRewardReplay(t *testing.T) {
	s := NewService(ServiceOptions{})
	if err := s.CreateStream("jobs", StreamConfig{
		Hardware: rewardTestHW(), Dim: 1, Options: core.Options{Seed: 5},
	}); err != nil {
		t.Fatal(err)
	}
	// One shadow inherits the stream's (runtime) reward, one carries
	// cost_weighted; both use greedy so the comparison is reward-only.
	if err := s.AttachShadow("jobs", ShadowConfig{Name: "inherit", Policy: PolicySpec{Type: PolicyGreedy}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachShadow("jobs", ShadowConfig{Name: "costly", Policy: PolicySpec{Type: PolicyGreedy},
		Reward: &RewardSpec{Type: RewardCostWeighted, Lambda: 2}}); err != nil {
		t.Fatal(err)
	}
	hw := rewardTestHW()
	var runtimeSum, costScoreSum float64
	for i := 0; i < 60; i++ {
		x := float64(i%9 + 1)
		tk, err := s.Recommend("jobs", []float64{x})
		if err != nil {
			t.Fatal(err)
		}
		rt := rewardTestRuntime(tk.Arm, x)
		runtimeSum += rt
		costScoreSum += rt + 2*hw[tk.Arm].Cost()
		if err := s.Observe(tk.ID, rt); err != nil {
			t.Fatal(err)
		}
	}
	shadows := infoOf(t, s, "jobs").Shadows
	byName := map[string]ShadowInfo{}
	for _, sh := range shadows {
		byName[sh.Name] = sh
	}
	inh, costly := byName["inherit"], byName["costly"]
	if inh.Reward.Type != RewardRuntime {
		t.Fatalf("inherited shadow reward = %+v", inh.Reward)
	}
	if costly.Reward.Type != RewardCostWeighted || costly.Reward.Lambda != 2 {
		t.Fatalf("own-reward shadow reward = %+v", costly.Reward)
	}
	if !almostEq(inh.RewardTotal, runtimeSum) {
		t.Fatalf("inherited shadow reward total = %.3f, want %.3f", inh.RewardTotal, runtimeSum)
	}
	if !almostEq(costly.RewardTotal, costScoreSum) {
		t.Fatalf("cost shadow reward total = %.3f, want %.3f", costly.RewardTotal, costScoreSum)
	}
	if costly.RewardTotal <= inh.RewardTotal {
		t.Fatal("cost shadow should score the same traffic higher than the runtime shadow")
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestSnapshotV4RewardRoundTrip: reward specs (stream and own-reward
// shadow), aggregates, and failure counters survive a save/load cycle
// byte-for-byte and keep scoring identically afterwards.
func TestSnapshotV4RewardRoundTrip(t *testing.T) {
	clock := &fakeClock{t: time.Unix(9800, 0)}
	s := NewService(ServiceOptions{Now: clock.now})
	if err := s.CreateStream("slo", StreamConfig{
		Hardware: rewardTestHW(), Dim: 1,
		Options: core.Options{Seed: 8},
		Reward:  RewardSpec{Type: RewardDeadline, DeadlineSeconds: 9, Penalty: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachShadow("slo", ShadowConfig{Name: "cost-view", Policy: PolicySpec{Type: PolicyGreedy},
		Reward: &RewardSpec{Type: RewardCostWeighted, Lambda: 0.5}}); err != nil {
		t.Fatal(err)
	}
	f := false
	for i := 0; i < 40; i++ {
		x := float64(i%11 + 1)
		tk, err := s.Recommend("slo", []float64{x})
		if err != nil {
			t.Fatal(err)
		}
		o := Outcome{Runtime: rewardTestRuntime(tk.Arm, x)}
		if i%10 == 9 {
			o.Success = &f
		}
		if err := s.ObserveOutcome(tk.ID, o); err != nil {
			t.Fatal(err)
		}
	}
	var first bytes.Buffer
	if err := s.Save(&first); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(first.Bytes(), []byte(`"reward"`)) {
		t.Fatal("v4 envelope is missing the reward spec")
	}
	back, err := Load(bytes.NewReader(first.Bytes()), ServiceOptions{Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := back.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("v4 reward snapshot not byte-for-byte stable")
	}
	wantInfo, _ := s.StreamInfo("slo")
	gotInfo, _ := back.StreamInfo("slo")
	if wantInfo.Reward != gotInfo.Reward ||
		wantInfo.RewardTotal != gotInfo.RewardTotal ||
		wantInfo.RuntimeTotal != gotInfo.RuntimeTotal ||
		wantInfo.Failures != gotInfo.Failures {
		t.Fatalf("reward state drifted:\n  want %+v\n  got  %+v", wantInfo, gotInfo)
	}
	gotShadows := infoOf(t, back, "slo").Shadows
	if len(gotShadows) != 1 || gotShadows[0].Reward.Type != RewardCostWeighted {
		t.Fatalf("shadow reward lost across snapshot: %+v", gotShadows)
	}
	// The restored stream still scores deadline misses: a 20s runtime
	// against the 9s deadline adds 4·11 seconds of penalty.
	tk, err := back.Recommend("slo", []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if err := back.ObserveOutcome(tk.ID, Outcome{Runtime: 20}); err != nil {
		t.Fatal(err)
	}
	after, _ := back.StreamInfo("slo")
	wantDelta := 20 + 4*(20-9.0)
	if !almostEq(after.RewardTotal-gotInfo.RewardTotal, wantDelta) {
		t.Fatalf("restored reward delta = %.3f, want %.3f", after.RewardTotal-gotInfo.RewardTotal, wantDelta)
	}
}

// TestCreateStreamRejectsBadReward: malformed reward specs fail stream
// creation (and shadow attachment) loudly.
func TestCreateStreamRejectsBadReward(t *testing.T) {
	s := NewService(ServiceOptions{})
	err := s.CreateStream("x", StreamConfig{
		Hardware: testHW(), Dim: 1,
		Reward: RewardSpec{Type: "fastest"},
	})
	if !errors.Is(err, ErrBadReward) {
		t.Fatalf("bad reward type: %v, want ErrBadReward", err)
	}
	err = s.CreateStream("x", StreamConfig{
		Hardware: testHW(), Dim: 1,
		Reward: RewardSpec{Type: RewardDeadline}, // missing deadline_seconds
	})
	if !errors.Is(err, ErrBadReward) {
		t.Fatalf("parameterless deadline: %v, want ErrBadReward", err)
	}
	if err := s.CreateStream("x", StreamConfig{Hardware: testHW(), Dim: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachShadow("x", ShadowConfig{Name: "sh", Policy: PolicySpec{},
		Reward: &RewardSpec{Type: "??"}}); !errors.Is(err, ErrBadReward) {
		t.Fatalf("bad shadow reward: %v, want ErrBadReward", err)
	}
}

package serve

// Acceptance coverage for non-stationary serving: under a mid-run
// environment swap that changes one arm's behaviour, streams with
// forgetting or window adaptation (or an on_drift auto-reset) recover
// their recommendation accuracy while the static stream stays degraded,
// and the online drift detector fires on the swapped arm only.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"banditware/internal/core"
	"banditware/internal/rng"
)

// driftEnv is the two-regime test environment: two arms, one feature
// x ∈ [1, 10]. Pre-swap arm 1 is always fastest; post-swap arm 1
// degrades (a co-tenant moved in) and arm 0 — untouched — becomes best.
type driftEnv struct {
	swapped bool
	r       *rng.Source
}

func (e *driftEnv) truth(arm int, x float64) float64 {
	switch {
	case arm == 0:
		return 20 + 2*x
	case !e.swapped:
		return 5 + x
	default:
		return 60 + 3*x
	}
}

func (e *driftEnv) runtime(arm int, x float64) float64 {
	return e.truth(arm, x) + e.r.Normal(0, 0.5)
}

func (e *driftEnv) bestArm(x float64) int {
	if e.truth(0, x) < e.truth(1, x) {
		return 0
	}
	return 1
}

// exploitAccuracy probes the stream's pure-exploitation choice on a
// grid against the environment's current best arm.
func exploitAccuracy(t *testing.T, s *Service, name string, env *driftEnv) float64 {
	t.Helper()
	correct := 0
	const probes = 10
	for i := 1; i <= probes; i++ {
		x := float64(i)
		arm, err := s.Exploit(name, []float64{x})
		if err != nil {
			t.Fatal(err)
		}
		if arm == env.bestArm(x) {
			correct++
		}
	}
	return float64(correct) / probes
}

// adaptTestDetector is a detector tuning sized to the test
// environment's signal scale (runtimes in tens of seconds, noise σ
// 0.5): the post-swap arm-1 residual of ≈ +55 crosses the threshold
// within a handful of observations, while stationary noise never does.
func adaptTestDetector() AdaptSpec {
	return AdaptSpec{
		DriftDelta:      1,
		DriftThreshold:  30,
		DriftMinSamples: 5,
		DriftWarmup:     10,
	}
}

// TestAdaptiveStreamsRecoverFromEnvironmentSwap is the tentpole
// acceptance test: four streams — static, forgetting, window, and
// static-with-auto-reset — serve identical traffic through an
// environment swap. The adaptive three recover to within 10% of their
// pre-drift exploit accuracy; the static stream stays degraded; the
// detector reports drift on the swapped arm only.
func TestAdaptiveStreamsRecoverFromEnvironmentSwap(t *testing.T) {
	s := NewService(ServiceOptions{})
	base := adaptTestDetector()
	specs := map[string]AdaptSpec{
		"static": base,
		"forget": {Mode: AdaptForgetting, Factor: 0.9,
			DriftDelta: base.DriftDelta, DriftThreshold: base.DriftThreshold,
			DriftMinSamples: base.DriftMinSamples, DriftWarmup: base.DriftWarmup},
		"window": {Mode: AdaptWindow, Window: 40,
			DriftDelta: base.DriftDelta, DriftThreshold: base.DriftThreshold,
			DriftMinSamples: base.DriftMinSamples, DriftWarmup: base.DriftWarmup},
		"reset": {OnDrift: DriftReset,
			DriftDelta: base.DriftDelta, DriftThreshold: base.DriftThreshold,
			DriftMinSamples: base.DriftMinSamples, DriftWarmup: base.DriftWarmup},
	}
	names := []string{"static", "forget", "window", "reset"}
	for _, name := range names {
		if err := s.CreateStream(name, StreamConfig{
			Hardware: testHW()[:2], Dim: 1, Adapt: specs[name],
			// Keep a little exploration alive forever so the swapped arm
			// keeps being sampled post-drift at all (the offline drift
			// experiment does the same).
			Options: core.Options{Seed: 42, MinEpsilon: 0.05},
		}); err != nil {
			t.Fatal(err)
		}
	}

	env := &driftEnv{r: rng.New(7)}
	traffic := rng.New(99)
	serve := func(rounds int) {
		for i := 0; i < rounds; i++ {
			x := float64(traffic.Intn(10) + 1)
			for _, name := range names {
				tk, err := s.Recommend(name, []float64{x})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Observe(tk.ID, env.runtime(tk.Arm, x)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	serve(1500) // regime 1: long enough that infinite memory anchors hard
	preAcc := make(map[string]float64, len(names))
	for _, name := range names {
		preAcc[name] = exploitAccuracy(t, s, name, env)
		if preAcc[name] < 0.9 {
			t.Fatalf("stream %q pre-drift accuracy %.2f, want ≥ 0.9", name, preAcc[name])
		}
		di, err := s.Drift(name)
		if err != nil {
			t.Fatal(err)
		}
		if di.Detections != 0 {
			t.Fatalf("stream %q detected drift in a stationary regime: %+v", name, di)
		}
	}

	env.swapped = true
	serve(300) // regime 2

	staticAcc := exploitAccuracy(t, s, "static", env)
	if staticAcc > 0.5 {
		t.Errorf("static stream post-drift accuracy %.2f — expected it to stay degraded (≤ 0.5)", staticAcc)
	}
	for _, name := range []string{"forget", "window", "reset"} {
		acc := exploitAccuracy(t, s, name, env)
		if acc < 0.9*preAcc[name] {
			t.Errorf("stream %q post-drift accuracy %.2f, want within 10%% of pre-drift %.2f",
				name, acc, preAcc[name])
		}
		if acc <= staticAcc {
			t.Errorf("stream %q post-drift accuracy %.2f did not recover past the static stream's %.2f",
				name, acc, staticAcc)
		}
	}

	// Detection: every stream saw the swap on arm 1 and nowhere else.
	for _, name := range names {
		di, err := s.Drift(name)
		if err != nil {
			t.Fatal(err)
		}
		if di.Arms[1].Detections < 1 {
			t.Errorf("stream %q: no drift detected on the swapped arm", name)
		}
		if di.Arms[0].Detections != 0 {
			t.Errorf("stream %q: %d spurious detections on the untouched arm", name, di.Arms[0].Detections)
		}
		info, err := s.StreamInfo(name)
		if err != nil {
			t.Fatal(err)
		}
		if info.DriftEvents != di.Detections {
			t.Errorf("stream %q: StreamInfo reports %d drift events, drift endpoint %d",
				name, info.DriftEvents, di.Detections)
		}
		if name == "reset" && di.Resets < 1 {
			t.Errorf("reset stream performed no arm resets (%+v)", di)
		}
	}
	stats := s.Stats()
	var want uint64
	for _, info := range stats.Streams {
		want += info.DriftEvents
	}
	if stats.TotalDriftEvents != want || want == 0 {
		t.Errorf("Stats.TotalDriftEvents = %d, want %d (> 0)", stats.TotalDriftEvents, want)
	}
}

// TestAdaptSpecValidation: malformed adaptation specs are rejected at
// stream creation with ErrBadAdapt.
func TestAdaptSpecValidation(t *testing.T) {
	s := NewService(ServiceOptions{})
	bad := []AdaptSpec{
		{Mode: "quantum"},
		{Mode: AdaptNone, Factor: 0.9},
		{Mode: AdaptNone, Window: 10},
		{Mode: AdaptForgetting, Factor: 1.5},
		{Mode: AdaptForgetting, Window: 10},
		{Mode: AdaptWindow, Window: 1},
		{Mode: AdaptWindow, Factor: 0.9},
		{OnDrift: "panic"},
		{DriftDelta: -1},
		{DriftThreshold: -1},
		{DriftMinSamples: -1},
		{DriftWarmup: -1},
	}
	for _, spec := range bad {
		err := s.CreateStream("x", StreamConfig{Hardware: testHW(), Dim: 1, Adapt: spec})
		if !errors.Is(err, ErrBadAdapt) {
			t.Errorf("spec %+v: error %v, want ErrBadAdapt", spec, err)
		}
	}
	// Adaptation on a model-free policy is refused; on_drift reset too.
	err := s.CreateStream("x", StreamConfig{
		Hardware: testHW(), Dim: 1,
		Policy: PolicySpec{Type: PolicyRandom},
		Adapt:  AdaptSpec{Mode: AdaptForgetting},
	})
	if !errors.Is(err, ErrBadAdapt) {
		t.Errorf("adaptive random stream: error %v, want ErrBadAdapt", err)
	}
	err = s.CreateStream("x", StreamConfig{
		Hardware: testHW(), Dim: 1,
		Policy: PolicySpec{Type: PolicyRandom},
		Adapt:  AdaptSpec{OnDrift: DriftReset},
	})
	if !errors.Is(err, ErrBadAdapt) {
		t.Errorf("reset-on-drift random stream: error %v, want ErrBadAdapt", err)
	}
	// Adapt is the only memory knob: the raw Options equivalents are
	// rejected, with or without an adaptation mode beside them.
	err = s.CreateStream("x", StreamConfig{
		Hardware: testHW(), Dim: 1,
		Options: core.Options{ForgettingFactor: 0.9},
	})
	if !errors.Is(err, ErrBadAdapt) {
		t.Errorf("raw forgetting knob: error %v, want ErrBadAdapt", err)
	}
	err = s.CreateStream("x", StreamConfig{
		Hardware: testHW(), Dim: 1,
		Options: core.Options{WindowSize: 10},
		Adapt:   AdaptSpec{Mode: AdaptWindow, Window: 64},
	})
	if !errors.Is(err, ErrBadAdapt) {
		t.Errorf("raw window knob: error %v, want ErrBadAdapt", err)
	}
	if s.NumStreams() != 0 {
		t.Fatalf("rejected specs left %d streams behind", s.NumStreams())
	}
}

// TestAdaptivePolicyStreams: the adaptation modes work on non-default
// policies too — a LinUCB forgetting stream and a greedy window stream
// re-learn a swapped arm that a static LinUCB stream does not.
func TestAdaptivePolicyStreams(t *testing.T) {
	s := NewService(ServiceOptions{})
	mk := func(name string, policy PolicySpec, adapt AdaptSpec) {
		t.Helper()
		if err := s.CreateStream(name, StreamConfig{
			Hardware: testHW()[:2], Dim: 1, Policy: policy, Adapt: adapt,
		}); err != nil {
			t.Fatal(err)
		}
	}
	mk("ucb-static", PolicySpec{Type: PolicyLinUCB}, AdaptSpec{})
	mk("ucb-forget", PolicySpec{Type: PolicyLinUCB}, AdaptSpec{Mode: AdaptForgetting, Factor: 0.9})
	mk("greedy-window", PolicySpec{Type: PolicyGreedy}, AdaptSpec{Mode: AdaptWindow, Window: 30})
	env := &driftEnv{r: rng.New(5)}
	feed := func(rounds int) {
		for i := 0; i < rounds; i++ {
			x := float64(i%10 + 1)
			for _, name := range []string{"ucb-static", "ucb-forget", "greedy-window"} {
				// Off-policy traffic: both arms observed every round, so
				// adaptation quality is isolated from exploration.
				for arm := 0; arm < 2; arm++ {
					if err := s.ObserveDirectOutcome(name, arm, []float64{x}, Outcome{Runtime: env.runtime(arm, x)}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	feed(800)
	env.swapped = true
	feed(100)
	for _, name := range []string{"ucb-forget", "greedy-window"} {
		if acc := exploitAccuracy(t, s, name, env); acc < 0.9 {
			t.Errorf("stream %q post-drift accuracy %.2f, want ≥ 0.9", name, acc)
		}
	}
	if acc := exploitAccuracy(t, s, "ucb-static", env); acc > 0.5 {
		t.Errorf("static LinUCB post-drift accuracy %.2f — expected degraded (≤ 0.5)", acc)
	}
}

// TestShadowsInheritAdaptation: a shadow attached to an adaptive stream
// replays under the stream's adaptation (its models forget too), and a
// model-free shadow still attaches.
func TestShadowsInheritAdaptation(t *testing.T) {
	s := NewService(ServiceOptions{})
	if err := s.CreateStream("jobs", StreamConfig{
		Hardware: testHW()[:2], Dim: 1,
		Adapt:   AdaptSpec{Mode: AdaptForgetting, Factor: 0.9},
		Options: core.Options{ZeroEpsilon: true, Seed: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachShadow("jobs", ShadowConfig{Name: "greedy-shadow", Policy: PolicySpec{Type: PolicyGreedy}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachShadow("jobs", ShadowConfig{Name: "random-shadow", Policy: PolicySpec{Type: PolicyRandom}}); err != nil {
		t.Fatalf("model-free shadow on adaptive stream: %v", err)
	}
	env := &driftEnv{r: rng.New(13)}
	feed := func(rounds int) {
		for i := 0; i < rounds; i++ {
			x := float64(i%10 + 1)
			for arm := 0; arm < 2; arm++ {
				if err := s.ObserveDirectOutcome("jobs", arm, []float64{x}, Outcome{Runtime: env.runtime(arm, x)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	feed(400)
	env.swapped = true
	feed(80)
	shadows := infoOf(t, s, "jobs").Shadows
	if len(shadows) != 2 || shadows[0].Observations == 0 {
		t.Fatalf("shadow counters: %+v", shadows)
	}
	arm, err := s.Exploit("jobs", []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if arm != 0 {
		t.Fatalf("adaptive primary exploits arm %d post-swap, want 0", arm)
	}
}

// TestRawForgettingStreamStillLoads: CreateStream refuses the raw
// Options memory knobs, but a stream that carries one (saved before the
// refusal, or adopted as a ready-made bandit) still saves, loads and
// re-saves to the same bytes, and keeps forgetting.
func TestRawForgettingStreamStillLoads(t *testing.T) {
	b, err := core.New(testHW(), 1, core.Options{ForgettingFactor: 0.9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	clock := ServiceOptions{Now: func() time.Time { return time.Unix(1700000000, 0) }}
	s := NewService(clock)
	if err := s.adoptBandit("f", b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tk, err := s.Recommend("f", []float64{float64(i%5 + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Observe(tk.ID, float64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	var first bytes.Buffer
	if err := s.Save(&first); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(first.Bytes()), clock)
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := back.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("raw-forgetting stream re-saved to different bytes")
	}
	if !bytes.Contains(second.Bytes(), []byte(`"ForgettingFactor": 0.9`)) {
		t.Fatal("re-saved stream lost its forgetting factor")
	}
}

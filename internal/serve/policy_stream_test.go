package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"banditware/internal/core"
	"banditware/internal/rng"
)

// driveStream runs rounds of ticket recommend→observe against a
// synthetic linear runtime surface (slope per arm), returning the last
// exploit choice for a large workflow.
func driveStream(t *testing.T, s *Service, name string, slopes []float64, rounds int) int {
	t.Helper()
	r := rng.New(21)
	for i := 0; i < rounds; i++ {
		x := r.Uniform(10, 100)
		tk, err := s.Recommend(name, []float64{x})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Observe(tk.ID, slopes[tk.Arm]*x+20); err != nil {
			t.Fatal(err)
		}
	}
	arm, err := s.Exploit(name, []float64{80})
	if err != nil {
		t.Fatal(err)
	}
	return arm
}

// TestPolicyStreamServing: a LinUCB-backed stream serves tickets, learns
// from observations, and reports its policy type; interval prediction is
// honestly unsupported.
func TestPolicyStreamServing(t *testing.T) {
	s := NewService(ServiceOptions{})
	err := s.CreateStream("ucb", StreamConfig{
		Hardware: testHW(), Dim: 1,
		Policy: PolicySpec{Type: PolicyLinUCB, Beta: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if arm := driveStream(t, s, "ucb", []float64{5, 3, 1}, 120); arm != 2 {
		t.Fatalf("linucb stream exploits arm %d, want 2", arm)
	}
	info, err := s.StreamInfo("ucb")
	if err != nil {
		t.Fatal(err)
	}
	if info.Policy != PolicyLinUCB || info.Round != 120 || info.Epsilon != 0 {
		t.Fatalf("info = %+v", info)
	}
	// Per-arm models exist; prediction intervals do not.
	if _, err := s.Model("ucb", 0); err != nil {
		t.Fatalf("linucb model: %v", err)
	}
	if _, err := s.PredictWithCI("ucb", []float64{5}, 0); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("linucb CI: %v, want ErrUnsupported", err)
	}
	// Dimension errors surface as the uniform core sentinel.
	if _, err := s.Recommend("ucb", []float64{1, 2}); !errors.Is(err, core.ErrDim) {
		t.Fatalf("dim error: %v, want core.ErrDim", err)
	}
	if _, err := s.recommendBatch("ucb", [][]float64{{1}, {2, 3}}, nil); !errors.Is(err, core.ErrDim) {
		t.Fatalf("batch dim error: %v, want core.ErrDim", err)
	}
}

// TestEveryPolicyTypeServes: each selectable policy type creates a
// stream and completes a recommend→observe round trip.
func TestEveryPolicyTypeServes(t *testing.T) {
	types := []string{
		PolicyAlgorithm1, PolicyLinUCB, PolicyLinTS,
		PolicyEpsGreedy, PolicyGreedy, PolicySoftmax, PolicyRandom,
	}
	s := NewService(ServiceOptions{})
	for i, typ := range types {
		name := fmt.Sprintf("s-%s", typ)
		err := s.CreateStream(name, StreamConfig{
			Hardware: testHW(), Dim: 1,
			Policy: PolicySpec{Type: typ, Seed: uint64(i + 1)},
		})
		if err != nil {
			t.Fatalf("create %s: %v", typ, err)
		}
		tk, err := s.Recommend(name, []float64{10})
		if err != nil {
			t.Fatalf("%s recommend: %v", typ, err)
		}
		if tk.Arm < 0 || tk.Arm >= len(testHW()) {
			t.Fatalf("%s arm %d out of range", typ, tk.Arm)
		}
		if err := s.Observe(tk.ID, 42); err != nil {
			t.Fatalf("%s observe: %v", typ, err)
		}
		if info, _ := s.StreamInfo(name); info.Policy != typ || info.Round != 1 {
			t.Fatalf("%s info: %+v", typ, info)
		}
	}
	// Model-free policy: PredictAll and Model honestly unsupported.
	if _, err := s.PredictAll("s-random", []float64{1}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("random PredictAll: %v", err)
	}
	if _, err := s.Model("s-random", 0); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("random Model: %v", err)
	}
	// Unknown policy type is rejected at creation.
	err := s.CreateStream("bad", StreamConfig{
		Hardware: testHW(), Dim: 1, Policy: PolicySpec{Type: "quantum"},
	})
	if !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("unknown policy: %v", err)
	}
}

// TestPolicySpecJSONForms: a spec decodes from a bare string or an
// object, resolves aliases, and rejects unknown fields.
func TestPolicySpecJSONForms(t *testing.T) {
	var spec PolicySpec
	if err := json.Unmarshal([]byte(`"linucb"`), &spec); err != nil || spec.Type != "linucb" {
		t.Fatalf("string form: %+v, %v", spec, err)
	}
	if err := json.Unmarshal([]byte(`{"type":"softmax","temperature":0.5,"seed":9}`), &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Type != "softmax" || spec.Temperature != 0.5 || spec.Seed != 9 {
		t.Fatalf("object form: %+v", spec)
	}
	if err := json.Unmarshal([]byte(`{"type":"linucb","bogus":1}`), &spec); err == nil {
		t.Fatal("unknown field accepted")
	}
	for alias, want := range map[string]string{
		"": PolicyAlgorithm1, "alg1": PolicyAlgorithm1, "decaying-eps-greedy": PolicyAlgorithm1,
		"thompson": PolicyLinTS, "epsilon-greedy": PolicyEpsGreedy, "boltzmann": PolicySoftmax,
		"LinUCB": PolicyLinUCB,
	} {
		got, err := PolicySpec{Type: alias}.kind()
		if err != nil || got != want {
			t.Fatalf("kind(%q) = %q, %v; want %q", alias, got, err, want)
		}
	}
}

// TestShadowEvaluation: shadows see every context and observation,
// never serve, accumulate agreement/replay/regret counters, and
// attach/detach with proper errors.
func TestShadowEvaluation(t *testing.T) {
	s := newTestService(t, ServiceOptions{}, "jobs")
	if err := s.AttachShadow("jobs", ShadowConfig{Name: "ucb", Policy: PolicySpec{Type: PolicyLinUCB}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachShadow("jobs", ShadowConfig{Name: "rand", Policy: PolicySpec{Type: PolicyRandom, Seed: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachShadow("jobs", ShadowConfig{Name: "ucb", Policy: PolicySpec{Type: PolicyLinUCB}}); !errors.Is(err, ErrShadowExists) {
		t.Fatalf("duplicate shadow: %v", err)
	}
	if err := s.AttachShadow("ghost", ShadowConfig{Name: "x", Policy: PolicySpec{}}); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("shadow on missing stream: %v", err)
	}
	if err := s.AttachShadow("jobs", ShadowConfig{Name: "bad name", Policy: PolicySpec{}}); !errors.Is(err, ErrBadStreamName) {
		t.Fatalf("bad shadow name: %v", err)
	}
	if err := s.AttachShadow("jobs", ShadowConfig{Name: "bad-type", Policy: PolicySpec{Type: "quantum"}}); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("bad shadow policy: %v", err)
	}

	const rounds = 80
	driveStream(t, s, "jobs", []float64{5, 3, 1}, rounds)

	shadows := infoOf(t, s, "jobs").Shadows
	if len(shadows) != 2 || shadows[0].Name != "ucb" || shadows[1].Name != "rand" {
		t.Fatalf("shadows = %+v", shadows)
	}
	for _, sh := range shadows {
		if sh.Decisions != rounds || sh.Observations != rounds || sh.Round != rounds {
			t.Fatalf("shadow %s counters: %+v", sh.Name, sh)
		}
		if sh.Agreements > sh.Observations {
			t.Fatalf("shadow %s agreements exceed observations: %+v", sh.Name, sh)
		}
		if math.IsNaN(sh.EstimatedRegret) || math.IsInf(sh.EstimatedRegret, 0) {
			t.Fatalf("shadow %s regret not finite: %+v", sh.Name, sh)
		}
		if (sh.Agreements == 0) != (sh.MatchedRuntimeTotal == 0) {
			t.Fatalf("shadow %s matched runtime inconsistent: %+v", sh.Name, sh)
		}
	}
	// LinUCB converges to the same best arm as the primary, so it must
	// agree often; random agrees only ~1/3 of the time.
	if shadows[0].Agreements <= shadows[1].Agreements {
		t.Fatalf("linucb (%d) should out-agree random (%d)", shadows[0].Agreements, shadows[1].Agreements)
	}
	// The shadow's own learning matches the primary's data: after 80
	// off-policy rounds LinUCB should also exploit arm 2. Detach-and-
	// inspect is not possible, so check via StreamInfo instead.
	info, _ := s.StreamInfo("jobs")
	if len(info.Shadows) != 2 {
		t.Fatalf("StreamInfo shadows = %+v", info.Shadows)
	}

	// A shadow attached mid-stream only counts from its attachment.
	if err := s.AttachShadow("jobs", ShadowConfig{Name: "late", Policy: PolicySpec{Type: PolicyGreedy}}); err != nil {
		t.Fatal(err)
	}
	tk, err := s.Recommend("jobs", []float64{50})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(tk.ID, 70); err != nil {
		t.Fatal(err)
	}
	shadows = infoOf(t, s, "jobs").Shadows
	if late := shadows[2]; late.Name != "late" || late.Decisions != 1 || late.Observations != 1 {
		t.Fatalf("late shadow: %+v", shadows[2])
	}

	// ObserveDirectOutcome counts one decision and one observation per call.
	before := infoOf(t, s, "jobs").Shadows
	if err := s.ObserveDirectOutcome("jobs", 1, []float64{30}, Outcome{Runtime: 110}); err != nil {
		t.Fatal(err)
	}
	after := infoOf(t, s, "jobs").Shadows
	for i := range after {
		if after[i].Decisions != before[i].Decisions+1 || after[i].Observations != before[i].Observations+1 {
			t.Fatalf("direct observe shadow %s: %+v -> %+v", after[i].Name, before[i], after[i])
		}
	}

	// Detach removes exactly the named shadow.
	if err := s.DetachShadow("jobs", "rand"); err != nil {
		t.Fatal(err)
	}
	if err := s.DetachShadow("jobs", "rand"); !errors.Is(err, ErrShadowNotFound) {
		t.Fatalf("double detach: %v", err)
	}
	shadows = infoOf(t, s, "jobs").Shadows
	if len(shadows) != 2 || shadows[0].Name != "ucb" || shadows[1].Name != "late" {
		t.Fatalf("after detach: %+v", shadows)
	}
}

// TestDetachPurgesPendingSelections: detaching a shadow drops its
// recorded per-ticket selections, so a new shadow reusing the name is
// never credited with the old one's choices.
func TestDetachPurgesPendingSelections(t *testing.T) {
	s := newTestService(t, ServiceOptions{}, "jobs")
	if err := s.AttachShadow("jobs", ShadowConfig{Name: "cand", Policy: PolicySpec{Type: PolicyGreedy}}); err != nil {
		t.Fatal(err)
	}
	tk, err := s.Recommend("jobs", []float64{5}) // cand's arm recorded
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DetachShadow("jobs", "cand"); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachShadow("jobs", ShadowConfig{Name: "cand", Policy: PolicySpec{Type: PolicyRandom, Seed: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(tk.ID, 30); err != nil {
		t.Fatal(err)
	}
	shadows := infoOf(t, s, "jobs").Shadows
	cand := shadows[0]
	// The new shadow learns from the observation but must carry no
	// agreement/regret credit for a selection it never made.
	if cand.Decisions != 0 || cand.Observations != 1 || cand.Agreements != 0 ||
		cand.MatchedRuntimeTotal != 0 || cand.EstimatedRegret != 0 {
		t.Fatalf("re-attached shadow inherited stale credit: %+v", cand)
	}
}

// TestSaveDetachConcurrent: Save encodes pending tickets' shadow
// selections after releasing the stream locks, while DetachShadow
// mutates them under the lock — the snapshot must copy, not alias (run
// with -race).
func TestSaveDetachConcurrent(t *testing.T) {
	s := newTestService(t, ServiceOptions{}, "jobs")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("sh%d", i)
			if err := s.AttachShadow("jobs", ShadowConfig{Name: name, Policy: PolicySpec{Type: PolicyGreedy}}); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Recommend("jobs", []float64{1}); err != nil { // pending ticket with shadow arm
				t.Error(err)
				return
			}
			if err := s.DetachShadow("jobs", name); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

// TestSnapshotV2ByteForByte: a service with policy-typed streams,
// shadows, and pending tickets round-trips through Save/Load with its
// serialised state byte-for-byte identical — learned models, counters,
// shadow selections, everything.
func TestSnapshotV2ByteForByte(t *testing.T) {
	clock := &fakeClock{t: time.Unix(9000, 0)}
	s := NewService(ServiceOptions{Now: clock.now, TicketTTL: time.Hour})
	if err := s.CreateStream("alg1", StreamConfig{
		Hardware: testHW(), Dim: 1, Options: core.Options{Seed: 1, ToleranceRatio: 0.1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateStream("ucb", StreamConfig{
		Hardware: testHW(), Dim: 1, Policy: PolicySpec{Type: PolicyLinUCB, Beta: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateStream("soft", StreamConfig{
		Hardware: testHW(), Dim: 1, Policy: PolicySpec{Type: PolicySoftmax, Temperature: 0.7, Seed: 5},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachShadow("alg1", ShadowConfig{Name: "ucb-shadow", Policy: PolicySpec{Type: PolicyLinUCB}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachShadow("alg1", ShadowConfig{Name: "ts-shadow", Policy: PolicySpec{Type: PolicyLinTS, Seed: 8}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachShadow("ucb", ShadowConfig{Name: "alg1-shadow", Policy: PolicySpec{Type: PolicyAlgorithm1, Seed: 9}}); err != nil {
		t.Fatal(err)
	}

	// Train, leaving every 6th ticket pending (with shadow selections).
	r := rng.New(17)
	var pendings []Ticket
	for _, name := range []string{"alg1", "ucb", "soft"} {
		for i := 0; i < 50; i++ {
			x := r.Uniform(1, 60)
			tk, err := s.Recommend(name, []float64{x})
			if err != nil {
				t.Fatal(err)
			}
			if i%6 == 5 {
				pendings = append(pendings, tk)
				continue
			}
			if err := s.Observe(tk.ID, 4*x+float64(tk.Arm)*15); err != nil {
				t.Fatal(err)
			}
		}
	}

	var first bytes.Buffer
	if err := s.Save(&first); err != nil {
		t.Fatal(err)
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
		t.Fatal("snapshot not byte-for-byte stable across load/save")
	}

	// The restored service still serves: pending tickets (with their
	// shadow joins) redeem, and shadow counters advance.
	preShadows := infoOf(t, back, "alg1").Shadows
	for _, tk := range pendings {
		if err := back.Observe(tk.ID, 99); err != nil {
			t.Fatalf("pending ticket %s lost: %v", tk.ID, err)
		}
	}
	postShadows := infoOf(t, back, "alg1").Shadows
	if postShadows[0].Observations <= preShadows[0].Observations {
		t.Fatalf("restored shadow did not observe: %+v -> %+v", preShadows[0], postShadows[0])
	}
}

// TestSnapshotReadsV1: a version-1 envelope (PR 1 format: Algorithm 1
// state in the "bandit" field, no policy tag) loads into the current
// service with models, counters, and pending tickets intact.
func TestSnapshotReadsV1(t *testing.T) {
	b, err := core.New(testHW(), 1, core.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		x := []float64{float64(i%20 + 1)}
		d, err := b.Recommend(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Observe(d.Arm, x, 3*x[0]+float64(d.Arm)*5); err != nil {
			t.Fatal(err)
		}
	}
	var banditState bytes.Buffer
	if err := b.SaveState(&banditState); err != nil {
		t.Fatal(err)
	}
	v1 := map[string]any{
		"format":   "banditware-service",
		"version":  1,
		"saved_at": time.Unix(7000, 0).UTC(),
		"streams": []map[string]any{{
			"name":          "legacy-v1",
			"bandit":        json.RawMessage(banditState.Bytes()),
			"max_pending":   64,
			"ticket_ttl_ns": 0,
			"next_seq":      41,
			"issued":        41,
			"observed":      40,
			"evicted":       0,
			"expired":       0,
			"pending": []map[string]any{{
				"id": "legacy-v1#28", "seq": 40, "arm": 1,
				"features": []float64{7}, "issued_at_ns": time.Unix(6999, 0).UnixNano(),
			}},
		}},
	}
	blob, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Load(bytes.NewReader(blob), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.StreamInfo("legacy-v1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Policy != PolicyAlgorithm1 || info.Round != 40 || info.Issued != 41 || info.Pending != 1 {
		t.Fatalf("v1 info = %+v", info)
	}
	// Models survived: predictions match the original bandit.
	want, _ := b.PredictAll([]float64{12})
	got, err := s.PredictAll("legacy-v1", []float64{12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-12 {
			t.Fatalf("v1 predictions drifted: %v vs %v", want, got)
		}
	}
	// The v1 pending ticket is still redeemable.
	if err := s.Observe("legacy-v1#28", 33); err != nil {
		t.Fatalf("v1 pending ticket: %v", err)
	}
	// Re-saving upgrades to the current version and stays loadable.
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"version": 7`)) {
		t.Fatalf("re-save did not upgrade version:\n%.200s", buf.String())
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), ServiceOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRejectsFutureVersion: version 8 is refused rather than
// misread.
func TestSnapshotRejectsFutureVersion(t *testing.T) {
	blob := []byte(`{"format":"banditware-service","version":8,"streams":[]}`)
	if _, err := Load(bytes.NewReader(blob), ServiceOptions{}); err == nil {
		t.Fatal("future version accepted")
	}
}

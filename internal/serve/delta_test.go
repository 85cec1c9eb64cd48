package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"banditware/internal/core"
	"banditware/internal/hardware"
	"banditware/internal/regress"
)

// deltaTestDim is the feature dimension the delta tests share.
const deltaTestDim = 2

// deltaStreamCfg builds one stream config per policy under test.
func deltaStreamCfg(spec PolicySpec) StreamConfig {
	return StreamConfig{
		Hardware: testHW(),
		Dim:      deltaTestDim,
		Policy:   spec,
		Options:  core.Options{Seed: 11},
	}
}

// deltaObservation is the i-th deterministic observation of the shared
// trace: arm choice, features, and a noiseless per-arm linear runtime.
func deltaObservation(i int) (arm int, x []float64, runtime float64) {
	arm = (i / 3) % len(testHW())
	x = []float64{float64(i%13 + 1), float64(i%7 + 2)}
	w := [][2]float64{{3, 1}, {1, 4}, {2, 2}}[arm]
	runtime = 5 + w[0]*x[0] + w[1]*x[1]
	return arm, x, runtime
}

// armSuff reads one arm's learned statistics (less the prior) straight
// from the stream's engine.
func armSuff(t *testing.T, s *Service, name string, arm int) regress.Sufficient {
	t.Helper()
	st, err := s.stream(name)
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	suff, err := st.engine.ArmLearned(arm)
	if err != nil {
		t.Fatal(err)
	}
	return suff
}

// relClose reports a ≈ b within rel (with an absolute floor for values
// near zero).
func relClose(a, b, rel float64) bool {
	d := math.Abs(a - b)
	if d <= rel {
		return true
	}
	return d <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// suffAt/suffBt index A and b treating the canonical zero (nil slices)
// as all-zeros.
func suffAt(s regress.Sufficient, i int) float64 {
	if s.A == nil {
		return 0
	}
	return s.A[i]
}

func suffBt(s regress.Sufficient, i int) float64 {
	if s.B == nil {
		return 0
	}
	return s.B[i]
}

func suffClose(t *testing.T, got, want regress.Sufficient, label string) {
	t.Helper()
	const tol = 1e-6
	if got.Dim != want.Dim || got.N != want.N {
		t.Fatalf("%s: dim/n = (%d, %d), want (%d, %d)", label, got.Dim, got.N, want.Dim, want.N)
	}
	d := got.Dim + 1
	for i := 0; i < d*d; i++ {
		if !relClose(suffAt(got, i), suffAt(want, i), tol) {
			t.Fatalf("%s: A[%d] = %v, want %v", label, i, suffAt(got, i), suffAt(want, i))
		}
	}
	for i := 0; i < d; i++ {
		if !relClose(suffBt(got, i), suffBt(want, i), tol) {
			t.Fatalf("%s: b[%d] = %v, want %v", label, i, suffBt(got, i), suffBt(want, i))
		}
	}
}

// shipDelta captures svc's delta against a fresh baseline and applies
// it to dst, returning the stats.
func shipDelta(t *testing.T, src *Service, base *SyncState, dst *Service) DeltaStats {
	t.Helper()
	cap, err := src.CaptureDelta(base)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := dst.ApplyDelta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cap.Commit()
	return stats
}

// deltaMergeSpecs is the policy matrix both delta-merge property tests
// run over — every shipped, mergeable policy engine.
func deltaMergeSpecs() map[string]PolicySpec {
	return map[string]PolicySpec{
		"algorithm1": {},
		"linucb":     {Type: PolicyLinUCB, Beta: 1.5},
		"lints":      {Type: PolicyLinTS, Seed: 7},
		"eps-greedy": {Type: PolicyEpsGreedy, Epsilon: 0.2, Seed: 9},
		"greedy":     {Type: PolicyGreedy},
		"softmax":    {Type: PolicySoftmax, Temperature: 0.5, Seed: 5},
		"random":     {Type: PolicyRandom, Seed: 3},
	}
}

// Churned-trace schedule: the arm set is 3-wide, grows to 4 at op 60,
// arm 0 drains at 120 and retires at 180 (back to 3 arms with shifted
// indices). deltaChurnWidth reports the arm count in effect at op i.
const (
	deltaChurnAdd    = 60
	deltaChurnDrain  = 120
	deltaChurnRetire = 180
)

func deltaChurnWidth(i int) int {
	if i >= deltaChurnAdd && i < deltaChurnRetire {
		return 4
	}
	return 3
}

// deltaChurnObservation is deltaObservation over the churned arm space:
// the arm index cycles over however many arms exist at op i, and the
// runtime weights are positional (the comparison needs identical inputs
// across services, not a stable hardware semantics).
func deltaChurnObservation(i int) (arm int, x []float64, runtime float64) {
	arm = (i / 3) % deltaChurnWidth(i)
	x = []float64{float64(i%13 + 1), float64(i%7 + 2)}
	w := [][2]float64{{3, 1}, {1, 4}, {2, 2}, {1, 1}}[arm]
	runtime = 5 + w[0]*x[0] + w[1]*x[1]
	return arm, x, runtime
}

// deltaChurnOp applies the churn event scheduled at op i, if any. Adds
// are cold: warm-start masses are replica-local (each shard has seen a
// different slice of the trace), so a warm add would break the merge
// equivalence on purpose — elastic fleets add cold or warm identically
// everywhere.
func deltaChurnOp(t *testing.T, s *Service, i int) {
	t.Helper()
	switch i {
	case deltaChurnAdd:
		if _, err := s.AddArm("s", ArmAdd{
			Hardware: hardware.Config{Name: "H3", CPUs: 8, MemoryGB: 32},
		}); err != nil {
			t.Fatal(err)
		}
	case deltaChurnDrain:
		if err := s.DrainArm("s", 0); err != nil {
			t.Fatal(err)
		}
	case deltaChurnRetire:
		if err := s.RetireArm("s", 0); err != nil {
			t.Fatal(err)
		}
	}
}

// runDeltaMerge drives one policy through the K-shard merge property
// check, optionally with mid-trace arm churn applied identically to the
// single-node reference, every shard, and (before merging) the receiver.
func runDeltaMerge(t *testing.T, name string, spec PolicySpec, churn bool) {
	const T, K = 240, 3
	single := NewService(ServiceOptions{})
	if err := single.CreateStream("s", deltaStreamCfg(spec)); err != nil {
		t.Fatal(err)
	}
	shards := make([]*Service, K)
	for j := range shards {
		shards[j] = NewService(ServiceOptions{})
		if err := shards[j].CreateStream("s", deltaStreamCfg(spec)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < T; i++ {
		arm, x, rt := deltaObservation(i)
		if churn {
			// Lifecycle ops land on every replica at the same trace
			// position, exactly like a fleet-wide rollout step.
			deltaChurnOp(t, single, i)
			for _, sh := range shards {
				deltaChurnOp(t, sh, i)
			}
			arm, x, rt = deltaChurnObservation(i)
		}
		if err := single.ObserveDirectOutcome("s", arm, x, Outcome{Runtime: rt}); err != nil {
			t.Fatal(err)
		}
		if err := shards[i%K].ObserveDirectOutcome("s", arm, x, Outcome{Runtime: rt}); err != nil {
			t.Fatal(err)
		}
	}

	merged := NewService(ServiceOptions{})
	if err := merged.CreateStream("s", deltaStreamCfg(spec)); err != nil {
		t.Fatal(err)
	}
	if churn {
		// The receiver replays the same rollout before merging, so its
		// arm set is index-aligned with the shards' final shape.
		for _, i := range []int{deltaChurnAdd, deltaChurnDrain, deltaChurnRetire} {
			deltaChurnOp(t, merged, i)
		}
	}
	for _, sh := range shards {
		shipDelta(t, sh, sh.NewSyncState(), merged)
	}

	if got, want := infoOf(t, merged, "s").Round, infoOf(t, single, "s").Round; got != want {
		t.Fatalf("merged rounds = %d, single-node = %d", got, want)
	}
	gi, err := merged.StreamInfo("s")
	if err != nil {
		t.Fatal(err)
	}
	wi, err := single.StreamInfo("s")
	if err != nil {
		t.Fatal(err)
	}
	if gi.Observed != wi.Observed || gi.RewardTotal != wi.RewardTotal {
		t.Fatalf("merged counters = (%d, %v), single-node = (%d, %v)",
			gi.Observed, gi.RewardTotal, wi.Observed, wi.RewardTotal)
	}
	if name == "algorithm1" {
		if ge, we := infoOf(t, merged, "s").Epsilon, infoOf(t, single, "s").Epsilon; ge != we {
			t.Fatalf("merged ε = %v, single-node ε = %v (decay schedule must be float-exact)", ge, we)
		}
	}
	if spec.Type == PolicyRandom {
		return // model-free: rounds and counters are the whole state
	}
	for a := range infoOf(t, single, "s").Hardware {
		suffClose(t, armSuff(t, merged, "s", a), armSuff(t, single, "s", a),
			fmt.Sprintf("arm %d", a))
	}
	for i := 0; i < 50; i++ {
		x := []float64{float64(i%17 + 1), float64(i%5 + 1)}
		got, err := merged.Exploit("s", x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.Exploit("s", x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("exploit(%v): merged arm %d, single-node arm %d", x, got, want)
		}
	}
}

// TestDeltaMergeReproducesSingleNode is the delta-merge property test:
// for every shipped policy, splitting a trace across K shard replicas
// and merging their deltas into a fresh service reproduces the model a
// single node learns from the whole trace — sufficient statistics
// within float tolerance, identical exploit decisions, round and
// counter totals exact, and (for Algorithm 1) the ε-decay schedule
// float-exact.
func TestDeltaMergeReproducesSingleNode(t *testing.T) {
	for name, spec := range deltaMergeSpecs() {
		t.Run(name, func(t *testing.T) { runDeltaMerge(t, name, spec, false) })
	}
}

// TestDeltaMergeReproducesSingleNodeUnderChurn re-runs the merge
// property with mid-trace arm churn — a cold add, a drain, and a retire
// at fixed trace positions on every replica. The merged model must still
// be indistinguishable from the single node's for every policy engine,
// proving the retire-time baseline splicing and generation bookkeeping
// keep shard deltas index-aligned through arm-set changes.
func TestDeltaMergeReproducesSingleNodeUnderChurn(t *testing.T) {
	for name, spec := range deltaMergeSpecs() {
		t.Run(name, func(t *testing.T) { runDeltaMerge(t, name, spec, true) })
	}
}

// TestDeltaSyncIncremental pins the two-phase capture/commit contract:
// committed deltas advance the baseline (the next capture is empty),
// uncommitted captures are re-extracted, and a chain of incremental
// syncs converges the receiver onto the sender's model.
func TestDeltaSyncIncremental(t *testing.T) {
	src := NewService(ServiceOptions{})
	dst := NewService(ServiceOptions{})
	cfg := deltaStreamCfg(PolicySpec{Type: PolicyLinUCB})
	if err := src.CreateStream("s", cfg); err != nil {
		t.Fatal(err)
	}
	if err := dst.CreateStream("s", cfg); err != nil {
		t.Fatal(err)
	}
	base := src.NewSyncState()

	for i := 0; i < 30; i++ {
		arm, x, rt := deltaObservation(i)
		if err := src.ObserveDirectOutcome("s", arm, x, Outcome{Runtime: rt}); err != nil {
			t.Fatal(err)
		}
	}
	if stats := shipDelta(t, src, base, dst); stats.Streams != 1 {
		t.Fatalf("first sync stats = %+v", stats)
	}
	// Committed and no new traffic: nothing to ship.
	cap, err := src.CaptureDelta(base)
	if err != nil {
		t.Fatal(err)
	}
	if !cap.Empty() {
		t.Fatalf("capture after commit with no traffic carries %d streams", cap.Streams())
	}

	// A capture that never reaches its peer is dropped uncommitted; the
	// next capture re-extracts the same change.
	for i := 30; i < 60; i++ {
		arm, x, rt := deltaObservation(i)
		if err := src.ObserveDirectOutcome("s", arm, x, Outcome{Runtime: rt}); err != nil {
			t.Fatal(err)
		}
	}
	lost, err := src.CaptureDelta(base)
	if err != nil {
		t.Fatal(err)
	}
	if lost.Empty() {
		t.Fatal("capture with fresh traffic is empty")
	}
	// lost is dropped without Commit. The retry ships the same change.
	shipDelta(t, src, base, dst)

	for a := 0; a < len(testHW()); a++ {
		suffClose(t, armSuff(t, dst, "s", a), armSuff(t, src, "s", a), fmt.Sprintf("arm %d", a))
	}
	si, err := src.StreamInfo("s")
	if err != nil {
		t.Fatal(err)
	}
	di, err := dst.StreamInfo("s")
	if err != nil {
		t.Fatal(err)
	}
	if di.Observed != si.Observed || di.RewardTotal != si.RewardTotal {
		t.Fatalf("receiver counters = (%d, %v), sender = (%d, %v)",
			di.Observed, di.RewardTotal, si.Observed, si.RewardTotal)
	}
}

// TestDeltaNoEcho: contributions merged from a peer are never shipped
// back to it (or re-broadcast), so a two-replica exchange converges in
// one round trip and then goes quiet.
func TestDeltaNoEcho(t *testing.T) {
	cfg := deltaStreamCfg(PolicySpec{Type: PolicyLinUCB})
	a := NewService(ServiceOptions{})
	b := NewService(ServiceOptions{})
	for _, s := range []*Service{a, b} {
		if err := s.CreateStream("s", cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		arm, x, rt := deltaObservation(i)
		if err := a.ObserveDirectOutcome("s", arm, x, Outcome{Runtime: rt}); err != nil {
			t.Fatal(err)
		}
		arm, x, rt = deltaObservation(i + 100)
		if err := b.ObserveDirectOutcome("s", arm, x, Outcome{Runtime: rt}); err != nil {
			t.Fatal(err)
		}
	}
	aToB := a.NewSyncState()
	bToA := b.NewSyncState()
	shipDelta(t, a, aToB, b) // B now holds A's traffic too
	shipDelta(t, b, bToA, a) // B must ship only its own 20 observations

	ai, err := a.StreamInfo("s")
	if err != nil {
		t.Fatal(err)
	}
	bi, err := b.StreamInfo("s")
	if err != nil {
		t.Fatal(err)
	}
	if ai.Observed != 40 || bi.Observed != 40 {
		t.Fatalf("observed after full exchange = (%d, %d), want (40, 40) — echo detected", ai.Observed, bi.Observed)
	}
	for arm := 0; arm < len(testHW()); arm++ {
		suffClose(t, armSuff(t, a, "s", arm), armSuff(t, b, "s", arm), fmt.Sprintf("arm %d", arm))
	}
	// Steady state: neither side has anything new.
	for _, pair := range []struct {
		s    *Service
		base *SyncState
	}{{a, aToB}, {b, bToA}} {
		cap, err := pair.s.CaptureDelta(pair.base)
		if err != nil {
			t.Fatal(err)
		}
		if !cap.Empty() {
			t.Fatalf("steady-state capture carries %d streams", cap.Streams())
		}
	}
}

// TestDeltaSkipsNonMergeable: windowed and forgetting streams are
// reported in Skipped and never serialized, and a delta aimed at one is
// rejected; mergeable streams in the same service replicate normally.
func TestDeltaSkipsNonMergeable(t *testing.T) {
	s := NewService(ServiceOptions{})
	if err := s.CreateStream("ok", deltaStreamCfg(PolicySpec{Type: PolicyLinUCB})); err != nil {
		t.Fatal(err)
	}
	win := deltaStreamCfg(PolicySpec{Type: PolicyLinUCB})
	win.Adapt = AdaptSpec{Mode: AdaptWindow, Window: 8}
	if err := s.CreateStream("windowed", win); err != nil {
		t.Fatal(err)
	}
	forget := deltaStreamCfg(PolicySpec{})
	forget.Adapt = AdaptSpec{Mode: AdaptForgetting, Factor: 0.9}
	if err := s.CreateStream("forgetting", forget); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		arm, x, rt := deltaObservation(i)
		for _, name := range []string{"ok", "windowed", "forgetting"} {
			if err := s.ObserveDirectOutcome(name, arm, x, Outcome{Runtime: rt}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cap, err := s.CaptureDelta(s.NewSyncState())
	if err != nil {
		t.Fatal(err)
	}
	if len(cap.Skipped) != 2 {
		t.Fatalf("Skipped = %v, want the windowed and forgetting streams", cap.Skipped)
	}
	if cap.Streams() != 1 {
		t.Fatalf("capture carries %d streams, want only %q", cap.Streams(), "ok")
	}
	var buf bytes.Buffer
	if err := cap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("windowed")) {
		t.Fatal("non-mergeable stream leaked into the delta envelope")
	}

	// A delta aimed at a non-mergeable stream is a fleet
	// misconfiguration, not a silent skip.
	hostile := strings.Replace(buf.String(), `"name":"ok"`, `"name":"windowed"`, 1)
	if _, err := s.ApplyDelta(strings.NewReader(hostile)); !errors.Is(err, ErrNotMergeable) {
		t.Fatalf("ApplyDelta to windowed stream: %v, want ErrNotMergeable", err)
	}

	// A delta for a stream this replica does not serve is skipped and
	// reported (stream sets converge out of band).
	foreign := strings.Replace(buf.String(), `"name":"ok"`, `"name":"elsewhere"`, 1)
	stats, err := s.ApplyDelta(strings.NewReader(foreign))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.SkippedUnknown) != 1 || stats.SkippedUnknown[0] != "elsewhere" {
		t.Fatalf("stats = %+v, want elsewhere skipped", stats)
	}
}

// TestDeltaArmResetReanchors: a drift-triggered arm reset bumps the
// arm's generation, so the next capture re-anchors (ships the full
// post-reset local state) instead of computing a nonsensical increment
// against the pre-reset baseline.
func TestDeltaArmResetReanchors(t *testing.T) {
	src := NewService(ServiceOptions{})
	dst := NewService(ServiceOptions{})
	cfg := deltaStreamCfg(PolicySpec{})
	for _, s := range []*Service{src, dst} {
		if err := s.CreateStream("s", cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		arm, x, rt := deltaObservation(i)
		if err := src.ObserveDirectOutcome("s", arm, x, Outcome{Runtime: rt}); err != nil {
			t.Fatal(err)
		}
	}
	base := src.NewSyncState()
	shipDelta(t, src, base, dst)

	// Reset arm 0 the way observeDriftLocked does on a drift detection.
	st, err := src.stream("s")
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	if err := st.engine.ResetArm(0); err != nil {
		st.mu.Unlock()
		t.Fatal(err)
	}
	st.bumpArmGenLocked(0)
	st.mu.Unlock()

	for i := 0; i < 9; i++ { // 9 observations, arms 0..2 each get 3
		arm, x, rt := deltaObservation(i * 3)
		if err := src.ObserveDirectOutcome("s", arm, x, Outcome{Runtime: rt}); err != nil {
			t.Fatal(err)
		}
	}
	cap, err := src.CaptureDelta(base)
	if err != nil {
		t.Fatal(err)
	}
	if cap.Empty() {
		t.Fatal("post-reset capture is empty")
	}
	sd := cap.snap.Streams[0]
	// Arm 0 re-anchors: the shipped delta is exactly src's post-reset
	// local state, not an increment against the stale baseline.
	suffClose(t, sd.Arms[0], armSuff(t, src, "s", 0), "re-anchored arm 0")
	var buf bytes.Buffer
	if err := cap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ApplyDelta(&buf); err != nil {
		t.Fatal(err)
	}
	cap.Commit()
	// Replication is grow-only: the receiver keeps the pre-reset
	// contributions on top of the re-anchored state.
	if got, want := armSuff(t, dst, "s", 0).N, armSuff(t, src, "s", 0).N; got <= want {
		t.Fatalf("receiver arm 0 n = %d, want > sender's post-reset %d", got, want)
	}
}

// TestImportSnapshotRebaselines: a replica bootstrapped from a peer's
// snapshot treats everything it imported as foreign — its first delta
// capture is empty, only post-import traffic ships, and captures taken
// before the import cannot corrupt baselines (the epoch check).
func TestImportSnapshotRebaselines(t *testing.T) {
	donor := NewService(ServiceOptions{})
	if err := donor.CreateStream("s", deltaStreamCfg(PolicySpec{})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		arm, x, rt := deltaObservation(i)
		if err := donor.ObserveDirectOutcome("s", arm, x, Outcome{Runtime: rt}); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := donor.Save(&snap); err != nil {
		t.Fatal(err)
	}

	joiner := NewService(ServiceOptions{})
	stale := joiner.NewSyncState()
	if err := joiner.ImportSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !joiner.Ready() {
		t.Fatal("service not ready after import returned")
	}
	if got, want := infoOf(t, joiner, "s").Round, infoOf(t, donor, "s").Round; got != want {
		t.Fatalf("imported rounds = %d, donor = %d", got, want)
	}

	cap, err := joiner.CaptureDelta(joiner.NewSyncState())
	if err != nil {
		t.Fatal(err)
	}
	if !cap.Empty() {
		t.Fatalf("first capture after import carries %d streams — imported state re-shipped", cap.Streams())
	}

	// Only the joiner's own post-import traffic replicates back.
	for i := 0; i < 5; i++ {
		arm, x, rt := deltaObservation(i + 200)
		if err := joiner.ObserveDirectOutcome("s", arm, x, Outcome{Runtime: rt}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := donor.StreamInfo("s")
	if err != nil {
		t.Fatal(err)
	}
	shipDelta(t, joiner, joiner.NewSyncState(), donor)
	after, err := donor.StreamInfo("s")
	if err != nil {
		t.Fatal(err)
	}
	if after.Observed != before.Observed+5 {
		t.Fatalf("donor observed %d → %d, want +5 (imported state echoed back)", before.Observed, after.Observed)
	}

	// A capture taken against a pre-import baseline no-ops on Commit
	// (epoch mismatch) rather than planting stale baselines.
	preImport, err := joiner.CaptureDelta(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.ImportSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	preImport.Commit() // must be a no-op
	cap2, err := joiner.CaptureDelta(stale)
	if err != nil {
		t.Fatal(err)
	}
	if !cap2.Empty() {
		t.Fatalf("capture after re-import carries %d streams", cap2.Streams())
	}
}

// TestReadyzEndpoint: /v1/readyz is distinct from /v1/healthz — the
// process is alive (healthz 200) but not ready (readyz 503) while a
// snapshot import is in flight. Delta merges never clear readiness
// (TestReadyThroughDeltaMerges).
func TestReadyzEndpoint(t *testing.T) {
	svc := NewService(ServiceOptions{})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	get := func(path string) (int, map[string]string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := get("/v1/readyz"); code != 200 || body["status"] != "ready" {
		t.Fatalf("idle readyz = %d %v", code, body)
	}
	svc.beginMaintenance()
	if code, body := get("/v1/readyz"); code != 503 || body["status"] != "restoring" {
		t.Fatalf("maintenance readyz = %d %v, want 503 restoring", code, body)
	}
	if code, _ := get("/v1/healthz"); code != 200 {
		t.Fatalf("healthz during maintenance = %d, want 200 (liveness is not readiness)", code)
	}
	svc.endMaintenance()
	if code, _ := get("/v1/readyz"); code != 200 {
		t.Fatalf("readyz after maintenance = %d", code)
	}
}

// TestReadyThroughDeltaMerges: a delta merge leaves the replica serving
// correctly, so readiness never drops while one runs — a router probe
// landing mid-merge must not pull the replica out of the ring.
func TestReadyThroughDeltaMerges(t *testing.T) {
	const merges = 2000
	dst, done := mergeInBackground(t, merges)
	polls := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if polls == 0 {
				t.Fatal("no readiness poll overlapped the merges")
			}
			info, err := dst.StreamInfo("s")
			if err != nil {
				t.Fatal(err)
			}
			if info.Observed != merges*64 {
				t.Fatalf("observed %d after %d merges of 64, want %d", info.Observed, merges, merges*64)
			}
			return
		default:
		}
		if !dst.Ready() {
			t.Fatalf("Ready() read false during a delta merge (poll %d)", polls)
		}
		polls++
	}
}

// mergeInBackground applies the same 64-observation LinUCB delta to a
// fresh service, merges times, from another goroutine; the channel
// yields the first error (or nil) when the merges end.
func mergeInBackground(t *testing.T, merges int) (*Service, <-chan error) {
	t.Helper()
	src := NewService(ServiceOptions{})
	dst := NewService(ServiceOptions{})
	for _, svc := range []*Service{src, dst} {
		if err := svc.CreateStream("s", deltaStreamCfg(PolicySpec{Type: PolicyLinUCB})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		arm, x, rt := deltaObservation(i)
		if err := src.ObserveDirectOutcome("s", arm, x, Outcome{Runtime: rt}); err != nil {
			t.Fatal(err)
		}
	}
	cap, err := src.CaptureDelta(src.NewSyncState())
	if err != nil {
		t.Fatal(err)
	}
	var env bytes.Buffer
	if err := cap.Encode(&env); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < merges; i++ {
			if _, err := dst.ApplyDelta(bytes.NewReader(env.Bytes())); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return dst, done
}

// TestSaveDuringDeltaMerges: Save encodes after releasing the stream
// locks, so the merged state it persists must not alias the slices a
// concurrent merge writes (the race detector holds this test to it).
func TestSaveDuringDeltaMerges(t *testing.T) {
	dst, done := mergeInBackground(t, 200)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
		if err := dst.Save(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
}

// TestApplyDeltaRejectsMalformed walks the envelope validations.
func TestApplyDeltaRejectsMalformed(t *testing.T) {
	svc := NewService(ServiceOptions{})
	if err := svc.CreateStream("s", deltaStreamCfg(PolicySpec{Type: PolicyLinUCB})); err != nil {
		t.Fatal(err)
	}
	head := `{"format":"banditware-service","version":6,"delta":true,"saved_at_ns":1,"streams":`
	cases := map[string]string{
		"not a delta":       `{"format":"banditware-service","version":6,"delta":false,"streams":[]}`,
		"wrong format":      `{"format":"other","version":6,"delta":true,"streams":[]}`,
		"wrong version":     `{"format":"banditware-service","version":5,"delta":true,"streams":[]}`,
		"policy mismatch":   head + `[{"name":"s","policy":"lints","dim":2}]}`,
		"dim mismatch":      head + `[{"name":"s","policy":"linucb","dim":3}]}`,
		"negative rounds":   head + `[{"name":"s","policy":"linucb","dim":2,"rounds":-1}]}`,
		"arm count":         head + `[{"name":"s","policy":"linucb","dim":2,"arms":[{"dim":2}]}]}`,
		"non-finite totals": head + `[{"name":"s","policy":"linucb","dim":2,"reward_total":1e999}]}`,
	}
	for name, payload := range cases {
		if _, err := svc.ApplyDelta(strings.NewReader(payload)); !errors.Is(err, ErrBadDelta) {
			t.Fatalf("%s: err = %v, want ErrBadDelta", name, err)
		}
	}
	if !svc.Ready() {
		t.Fatal("service stuck not-ready after rejected deltas")
	}
}

// TestApplyDeltaRefusesOverflow: a peer delta whose totals or rounds
// would overflow the stream's own or its merged (foreign) share is
// refused with ErrBadDelta before anything of that stream merges, so
// Save keeps working for the whole service.
func TestApplyDeltaRefusesOverflow(t *testing.T) {
	const head = `{"format":"banditware-service","version":7,"delta":true,"streams":[`
	apply := func(s *Service, stream string) error {
		_, err := s.ApplyDelta(strings.NewReader(head + stream + `]}`))
		return err
	}
	checkSave := func(t *testing.T, s *Service) {
		t.Helper()
		if err := s.Save(io.Discard); err != nil {
			t.Fatalf("Save after a refused delta: %v", err)
		}
	}

	t.Run("stream totals", func(t *testing.T) {
		s := deltaFuzzService(t, nil)
		totals := `{"name":"live0","policy":"algorithm1","dim":2,"reward_total":1.7e308,"runtime_total":1.7e308}`
		if err := apply(s, totals); err != nil {
			t.Fatal(err)
		}
		before := armSuff(t, s, "live0", 0)
		arms := `"arms":[{"dim":2,"n":1,"a":[1,0,0,0,1,0,0,0,1],"b":[1,1,1]},{"dim":2},{"dim":2}]`
		again := `{"name":"live0","policy":"algorithm1","dim":2,` + arms + `,"reward_total":1.7e308,"runtime_total":1.7e308}`
		if err := apply(s, again); !errors.Is(err, ErrBadDelta) {
			t.Fatalf("overflowing totals: err = %v, want ErrBadDelta", err)
		}
		info, err := s.StreamInfo("live0")
		if err != nil {
			t.Fatal(err)
		}
		if info.RewardTotal != 1.7e308 || info.RuntimeTotal != 1.7e308 {
			t.Fatalf("totals after a refused delta: %v, %v", info.RewardTotal, info.RuntimeTotal)
		}
		suffClose(t, armSuff(t, s, "live0", 0), before, "arm 0 after a refused delta")
		checkSave(t, s)
	})

	t.Run("merged totals", func(t *testing.T) {
		// Local traffic and foreign deltas of opposite sign keep the
		// stream's total finite while the foreign share overflows.
		s := NewService(ServiceOptions{})
		if err := s.CreateStream("r", deltaStreamCfg(PolicySpec{Type: PolicyRandom})); err != nil {
			t.Fatal(err)
		}
		if err := s.ObserveDirectOutcome("r", 0, []float64{1, 1}, Outcome{Runtime: 1.5e308}); err != nil {
			t.Fatal(err)
		}
		negative := `{"name":"r","policy":"random","dim":2,"reward_total":-1.5e308}`
		if err := apply(s, negative); err != nil {
			t.Fatal(err)
		}
		if err := apply(s, negative); !errors.Is(err, ErrBadDelta) {
			t.Fatalf("overflowing merged totals: err = %v, want ErrBadDelta", err)
		}
		checkSave(t, s)
	})

	t.Run("rounds", func(t *testing.T) {
		arms := `"arms":[{"dim":2,"n":1,"a":[1,0,0,0,1,0,0,0,1],"b":[1,1,1]},{"dim":2},{"dim":2}],`
		for _, c := range []struct{ stream, policy string }{
			{"live0", PolicyAlgorithm1},
			{"live1", PolicyLinUCB},
		} {
			delta := func(rounds int, arms string) string {
				return fmt.Sprintf(`{"name":%q,"policy":%q,"dim":2,%s"rounds":%d}`, c.stream, c.policy, arms, rounds)
			}
			s := deltaFuzzService(t, nil)
			if err := s.ObserveDirectOutcome(c.stream, 0, []float64{1, 2}, Outcome{Runtime: 3}); err != nil {
				t.Fatal(err)
			}
			// From round 1, MaxRounds more rounds pass the bound by one.
			for _, rounds := range []int{math.MaxInt, core.MaxRounds} {
				if err := apply(s, delta(rounds, "")); !errors.Is(err, ErrBadDelta) {
					t.Fatalf("%s: %d rounds: err = %v, want ErrBadDelta", c.stream, rounds, err)
				}
				if got := infoOf(t, s, c.stream).Round; got != 1 {
					t.Fatalf("%s: round after a refused delta = %d, want 1", c.stream, got)
				}
				checkSave(t, s)
			}
			// Merges may take the counter to exactly MaxRounds and a
			// local observe past it. The stream then merges arm
			// statistics but no more rounds, and its snapshot restores
			// and bootstraps a joiner.
			if err := apply(s, delta(core.MaxRounds-1, "")); err != nil {
				t.Fatalf("%s: %v", c.stream, err)
			}
			if err := s.ObserveDirectOutcome(c.stream, 0, []float64{1, 2}, Outcome{Runtime: 3}); err != nil {
				t.Fatal(err)
			}
			if err := apply(s, delta(1, "")); !errors.Is(err, ErrBadDelta) {
				t.Fatalf("%s: a round past MaxRounds: err = %v, want ErrBadDelta", c.stream, err)
			}
			if err := apply(s, delta(0, arms)); err != nil {
				t.Fatalf("%s: arm statistics past MaxRounds: %v", c.stream, err)
			}
			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				t.Fatal(err)
			}
			joiner := NewService(ServiceOptions{})
			if err := joiner.ImportSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("%s: importing a stream past MaxRounds: %v", c.stream, err)
			}
			buf.Reset()
			if err := joiner.Save(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := Load(&buf, ServiceOptions{})
			if err != nil {
				t.Fatalf("%s: loading a stream past MaxRounds: %v", c.stream, err)
			}
			if got := infoOf(t, back, c.stream).Round; got != core.MaxRounds+1 {
				t.Fatalf("%s: loaded round = %d, want %d", c.stream, got, core.MaxRounds+1)
			}
		}
	})
}

// BenchmarkCaptureApplyDelta times one replication step per policy
// type: CaptureDelta over a 64-stream service, the envelope's JSON
// encode, and ApplyDelta on a peer serving the same streams. The
// capture is never committed, so every iteration ships the same delta:
// each stream's full local state after 24 observations. The peer keeps
// absorbing it, which leaves its models well-posed (the same positive
// semidefinite mass, added again).
//
// The first step, which also builds the peer's merge accounting, runs
// untimed, and each timed step starts from a heap collected twice
// outside the timer. The JSON encoder's pooled buffer survives one
// collection and not two, and regrows in about twenty allocations, so
// without this allocs/op would depend on when the collector ran.
func BenchmarkCaptureApplyDelta(b *testing.B) {
	for _, kind := range []string{
		PolicyAlgorithm1, PolicyLinUCB, PolicyLinTS, PolicyEpsGreedy,
		PolicyGreedy, PolicySoftmax, PolicyRandom,
	} {
		b.Run(kind, func(b *testing.B) {
			src, peer := NewService(ServiceOptions{}), NewService(ServiceOptions{})
			for i := 0; i < 64; i++ {
				name := fmt.Sprintf("s%04d", i)
				cfg := StreamConfig{
					Hardware: testHW(), Dim: 2, Options: core.Options{Seed: 7},
					Policy: PolicySpec{Type: kind, Seed: 7},
				}
				for _, s := range []*Service{src, peer} {
					if err := s.CreateStream(name, cfg); err != nil {
						b.Fatal(err)
					}
				}
				for j := 0; j < 24; j++ {
					arm, x, rt := deltaObservation(i + j)
					if err := src.ObserveDirectOutcome(name, arm, x, Outcome{Runtime: rt}); err != nil {
						b.Fatal(err)
					}
				}
			}
			sync := src.NewSyncState()
			var buf bytes.Buffer
			step := func() {
				c, err := src.CaptureDelta(sync)
				if err != nil {
					b.Fatal(err)
				}
				buf.Reset()
				if err := c.Encode(&buf); err != nil {
					b.Fatal(err)
				}
				stats, err := peer.ApplyDelta(&buf)
				if err != nil {
					b.Fatal(err)
				}
				if stats.Streams != 64 {
					b.Fatalf("applied %d streams, want 64", stats.Streams)
				}
			}
			step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				runtime.GC()
				b.StartTimer()
				step()
			}
		})
	}
}

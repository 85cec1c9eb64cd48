package serve

// Cross-version snapshot coverage: every format the loader claims to
// read (legacy, v1, v2, v3, v4, v5, v6, v7) loads into the current
// service, re-saves as v7, and — for the current format — round-trips
// byte-for-byte, with and without declared schemas, rewards, live
// normalization state, and drift-detector state. TestSnapshotReadsV1
// (v1 → v7) and TestLoadLegacySingleRecommenderState (legacy → v7)
// cover the older two writers; TestSnapshotReadsV3, TestSnapshotReadsV4,
// TestSnapshotReadsV5 and TestSnapshotReadsV6 pin the byte-stable
// upgrades for default-reward / default-adaptation / single-node /
// static-arm-set streams.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"
	"time"

	"banditware/internal/core"
	"banditware/internal/schema"
)

// buildMixedService assembles the snapshot torture case: an Algorithm 1
// stream with a declared schema (live min-max state), a LinUCB stream
// without one, a shadow, and pending tickets on both paths.
func buildMixedService(t *testing.T, clock *fakeClock) (*Service, []Ticket) {
	t.Helper()
	s := NewService(ServiceOptions{Now: clock.now, TicketTTL: time.Hour})
	if err := s.CreateStream("typed", StreamConfig{
		Hardware: testHW(), Schema: testSchemaFields(), Options: core.Options{Seed: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateStream("plain", StreamConfig{
		Hardware: testHW(), Dim: 1, Policy: PolicySpec{Type: PolicyLinUCB, Beta: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachShadow("typed", ShadowConfig{Name: "greedy-shadow", Policy: PolicySpec{Type: PolicyGreedy}}); err != nil {
		t.Fatal(err)
	}
	var pendings []Ticket
	for i := 0; i < 40; i++ {
		ctx := schema.Context{
			Numeric:     map[string]float64{"num_tasks": float64(1 + i*53%300), "input_mb": float64(5 + i*29%800)},
			Categorical: map[string]string{"site": []string{"expanse", "nautilus", "local"}[i%3]},
		}
		tk, err := s.RecommendCtx("typed", ctx)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := s.Recommend("plain", []float64{float64(i%9 + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			pendings = append(pendings, tk, raw)
			continue
		}
		if err := s.Observe(tk.ID, float64(10+i%13*7)); err != nil {
			t.Fatal(err)
		}
		if err := s.Observe(raw.ID, float64(30+i%5*11)); err != nil {
			t.Fatal(err)
		}
	}
	return s, pendings
}

// TestSnapshotV7ByteForByte: the current envelope — schemas, live
// normalization statistics, outcome aggregates, drift-detector state,
// shadows, pending tickets — survives a load/save cycle byte-for-byte,
// and the restored service still serves.
func TestSnapshotV7ByteForByte(t *testing.T) {
	clock := &fakeClock{t: time.Unix(9500, 0)}
	s, pendings := buildMixedService(t, clock)

	var first bytes.Buffer
	if err := s.Save(&first); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(first.Bytes(), []byte(`"version": 7`)) {
		t.Fatalf("save is not version 7:\n%.120s", first.String())
	}
	if !bytes.Contains(first.Bytes(), []byte(`"schema"`)) {
		t.Fatal("v7 envelope is missing the schema field")
	}
	if !bytes.Contains(first.Bytes(), []byte(`"drift"`)) {
		t.Fatal("v7 envelope is missing the drift block (detectors saw traffic)")
	}
	if bytes.Contains(first.Bytes(), []byte(`"dist"`)) {
		t.Fatal("single-node envelope grew a dist block (no deltas were merged)")
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
		t.Fatal("v7 snapshot not byte-for-byte stable across load/save")
	}
	// Restored pending tickets (on both the schema and the raw stream)
	// still redeem.
	for _, tk := range pendings {
		if err := back.Observe(tk.ID, 77); err != nil {
			t.Fatalf("pending ticket %s lost: %v", tk.ID, err)
		}
	}
	// And context traffic keeps flowing against the restored schema.
	if _, err := back.RecommendCtx("typed", schema.Num(map[string]float64{"num_tasks": 50})); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReadsV2: a version-2 envelope (PR 2 format: policy-typed
// streams, no schema field) loads into the current service and upgrades
// to a byte-identical v3 on re-save — schemaless v3 stream bodies are
// exactly their v2 form, so only the version number moves.
func TestSnapshotReadsV2(t *testing.T) {
	clock := &fakeClock{t: time.Unix(9600, 0)}
	s := NewService(ServiceOptions{Now: clock.now, TicketTTL: time.Hour})
	if err := s.CreateStream("alg1", StreamConfig{
		Hardware: testHW(), Dim: 1, Options: core.Options{Seed: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateStream("ucb", StreamConfig{
		Hardware: testHW(), Dim: 1, Policy: PolicySpec{Type: PolicyLinUCB, Beta: 1.5},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachShadow("alg1", ShadowConfig{Name: "ts-shadow", Policy: PolicySpec{Type: PolicyLinTS, Seed: 6}}); err != nil {
		t.Fatal(err)
	}
	var pending Ticket
	for i := 0; i < 30; i++ {
		for _, name := range []string{"alg1", "ucb"} {
			tk, err := s.Recommend(name, []float64{float64(i%12 + 1)})
			if err != nil {
				t.Fatal(err)
			}
			if name == "alg1" && i == 29 {
				pending = tk
				continue
			}
			if err := s.Observe(tk.ID, float64(15+i%9*6)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var current bytes.Buffer
	if err := s.Save(&current); err != nil {
		t.Fatal(err)
	}
	// What the PR 2 writer would have produced: the same schemaless
	// stream bodies under "version": 2, without the v4 reward fields or
	// the v5 drift blocks.
	v2 := stripRewardFields(stripDriftBlocks(t, reversion(t, current.Bytes(), 7, 2)))
	back, err := Load(bytes.NewReader(v2), ServiceOptions{Now: clock.now})
	if err != nil {
		t.Fatalf("loading v2 envelope: %v", err)
	}
	info, err := back.StreamInfo("alg1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Round != 29 || info.Pending != 1 || len(info.Shadows) != 1 {
		t.Fatalf("v2 restore info = %+v", info)
	}
	if info.Reward.Type != RewardRuntime {
		t.Fatalf("v2 restore reward = %+v, want runtime default", info.Reward)
	}
	if p := infoOf(t, back, "ucb").Policy; p != PolicyLinUCB {
		t.Fatalf("v2 restore policy = %q", p)
	}
	// The v2 pending ticket still redeems, and re-saving upgrades the
	// envelope to a v7 that differs from the v2 file only in its
	// version number (the reward aggregates and drift detectors restart
	// pristine, which the writer omits).
	var resaved bytes.Buffer
	if err := back.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), reversion(t, v2, 2, 7)) {
		t.Fatal("v2 → v7 upgrade is not byte-identical modulo the version number")
	}
	if err := back.Observe(pending.ID, 44); err != nil {
		t.Fatalf("v2 pending ticket: %v", err)
	}
}

// reversion rewrites the envelope's version marker.
func reversion(t *testing.T, b []byte, from, to int) []byte {
	t.Helper()
	fromB := []byte(fmt.Sprintf(`"version": %d`, from))
	toB := []byte(fmt.Sprintf(`"version": %d`, to))
	out := bytes.Replace(b, fromB, toB, 1)
	if bytes.Equal(out, b) {
		t.Fatalf("version marker %s not found in envelope", fromB)
	}
	return out
}

// stripRewardFields removes the version-4 reward lines ("reward",
// "reward_total", "runtime_total", "matched_reward_total", "failures")
// from an indented envelope, producing the bytes the pre-reward writers
// emitted. Each field lives on its own line and is never the last
// member of its object, so whole-line removal keeps the JSON valid.
func stripRewardFields(b []byte) []byte {
	var out [][]byte
	for _, line := range bytes.Split(b, []byte("\n")) {
		trimmed := bytes.TrimSpace(line)
		if bytes.HasPrefix(trimmed, []byte(`"reward":`)) ||
			bytes.HasPrefix(trimmed, []byte(`"reward_total":`)) ||
			bytes.HasPrefix(trimmed, []byte(`"runtime_total":`)) ||
			bytes.HasPrefix(trimmed, []byte(`"matched_reward_total":`)) ||
			bytes.HasPrefix(trimmed, []byte(`"failures":`)) {
			continue
		}
		out = append(out, line)
	}
	return bytes.Join(out, []byte("\n"))
}

// TestSnapshotReadsV3: a version-3 envelope (PR 3 format: schemas, no
// reward fields) loads into the current service — default runtime
// reward, zero aggregates, pristine detectors — and upgrades on
// re-save to a v7 that differs from the v3 file only in its version
// number: the promised byte-stable upgrade for default-reward streams.
func TestSnapshotReadsV3(t *testing.T) {
	clock := &fakeClock{t: time.Unix(9650, 0)}
	s, pendings := buildMixedService(t, clock)
	var current bytes.Buffer
	if err := s.Save(&current); err != nil {
		t.Fatal(err)
	}
	// What the PR 3 writer would have produced for the same service.
	v3 := stripRewardFields(stripDriftBlocks(t, reversion(t, current.Bytes(), 7, 3)))
	back, err := Load(bytes.NewReader(v3), ServiceOptions{Now: clock.now})
	if err != nil {
		t.Fatalf("loading v3 envelope: %v", err)
	}
	info, err := back.StreamInfo("typed")
	if err != nil {
		t.Fatal(err)
	}
	if info.Reward.Type != RewardRuntime || info.RewardTotal != 0 {
		t.Fatalf("v3 restore reward state = %+v", info)
	}
	if info.Schema == nil || len(info.Shadows) != 1 {
		t.Fatalf("v3 restore lost schema/shadows: %+v", info)
	}
	var resaved bytes.Buffer
	if err := back.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), reversion(t, v3, 3, 7)) {
		t.Fatal("v3 → v7 upgrade is not byte-stable for default-reward streams")
	}
	// The restored service keeps serving: pending v3 tickets redeem and
	// the reward aggregates resume from zero.
	for _, tk := range pendings {
		if err := back.Observe(tk.ID, 55); err != nil {
			t.Fatalf("v3 pending ticket %s: %v", tk.ID, err)
		}
	}
	info, _ = back.StreamInfo("typed")
	if info.RewardTotal == 0 || info.RewardTotal != info.RuntimeTotal {
		t.Fatalf("post-upgrade aggregates = %+v", info)
	}
}

// TestSnapshotRestoreRejectsCorruptSchema: a v3 stream whose schema
// disagrees with its engine dimension (or fails schema validation) is
// refused rather than silently mis-encoding every future context.
func TestSnapshotRestoreRejectsCorruptSchema(t *testing.T) {
	clock := &fakeClock{t: time.Unix(9700, 0)}
	s, _ := buildMixedService(t, clock)
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	// Drop a category from the one-hot field: the schema still
	// validates, but its encoded dimension no longer matches the engine.
	corrupt := bytes.Replace(snap.Bytes(),
		[]byte(`"expanse",`), nil, 1)
	if bytes.Equal(corrupt, snap.Bytes()) {
		t.Fatal("category marker not found")
	}
	if _, err := Load(bytes.NewReader(corrupt), ServiceOptions{}); err == nil {
		t.Fatal("dimension-mismatched schema accepted")
	}
	// An outright invalid schema (duplicate field names) is refused too.
	corrupt = bytes.Replace(snap.Bytes(),
		[]byte(`"name": "input_mb"`), []byte(`"name": "num_tasks"`), 1)
	if bytes.Equal(corrupt, snap.Bytes()) {
		t.Fatal("field marker not found")
	}
	if _, err := Load(bytes.NewReader(corrupt), ServiceOptions{}); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

// stripDriftBlocks removes the version-5 "drift" members — multi-line
// JSON objects holding the per-arm detector states — from an indented
// envelope, producing the bytes the v4 writer emitted.
func stripDriftBlocks(t *testing.T, b []byte) []byte {
	t.Helper()
	return stripBlocks(t, b, "drift")
}

// stripCacheBlocks removes the "cache" members that version-7 writers
// emitted while streams could carry a recommendation cache, producing
// the bytes the current writer emits for the same streams.
func stripCacheBlocks(t *testing.T, b []byte) []byte {
	t.Helper()
	return stripBlocks(t, b, "cache")
}

// stripBlocks removes every multi-line object member named key from an
// indented envelope. Each block opens with a `"key": {` line and closes
// at the first `},`/`}` line of the same indentation; none may be the
// last member of its object, or the JSON would keep a trailing comma.
func stripBlocks(t *testing.T, b []byte, key string) []byte {
	t.Helper()
	open := []byte(`"` + key + `": {`)
	lines := bytes.Split(b, []byte("\n"))
	var out [][]byte
	stripped := 0
	for i := 0; i < len(lines); i++ {
		trimmed := bytes.TrimLeft(lines[i], " ")
		if !bytes.HasPrefix(trimmed, open) {
			out = append(out, lines[i])
			continue
		}
		indent := len(lines[i]) - len(trimmed)
		j := i + 1
		for ; j < len(lines); j++ {
			tj := bytes.TrimLeft(lines[j], " ")
			if len(lines[j])-len(tj) == indent && (bytes.Equal(tj, []byte("},")) || bytes.Equal(tj, []byte("}"))) {
				break
			}
		}
		if j == len(lines) {
			t.Fatalf("unterminated %s block", key)
		}
		i = j // skip the whole block including its closing line
		stripped++
	}
	if stripped == 0 {
		t.Fatalf("no %s blocks found to strip", key)
	}
	return bytes.Join(out, []byte("\n"))
}

// TestSnapshotReadsV4: a version-4 envelope (PR 4 format: rewards, no
// adapt/drift fields) loads into the current service — default
// adaptation, pristine detectors — and upgrades on re-save to a v7
// that differs from the v4 file only in its version number: the
// promised byte-stable upgrade for default-adaptation streams.
func TestSnapshotReadsV4(t *testing.T) {
	clock := &fakeClock{t: time.Unix(9800, 0)}
	s, pendings := buildMixedService(t, clock)
	var current bytes.Buffer
	if err := s.Save(&current); err != nil {
		t.Fatal(err)
	}
	// What the PR 4 writer would have produced for the same service.
	v4 := stripDriftBlocks(t, reversion(t, current.Bytes(), 7, 4))
	back, err := Load(bytes.NewReader(v4), ServiceOptions{Now: clock.now})
	if err != nil {
		t.Fatalf("loading v4 envelope: %v", err)
	}
	info, err := back.StreamInfo("typed")
	if err != nil {
		t.Fatal(err)
	}
	if info.Adapt.Mode != AdaptNone || info.Adapt.OnDrift != DriftObserve {
		t.Fatalf("v4 restore adaptation = %+v, want none/observe default", info.Adapt)
	}
	if info.DriftEvents != 0 || info.DriftByArm != nil {
		t.Fatalf("v4 restore drift counters = %d/%v, want pristine", info.DriftEvents, info.DriftByArm)
	}
	di, err := back.Drift("typed")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range di.Arms {
		if a.Samples != 0 || a.Detections != 0 {
			t.Fatalf("v4 restore arm %d detector not pristine: %+v", a.Arm, a)
		}
	}
	var resaved bytes.Buffer
	if err := back.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), reversion(t, v4, 4, 7)) {
		t.Fatal("v4 → v7 upgrade is not byte-stable for default-adaptation streams")
	}
	// The restored service keeps serving: pending v4 tickets redeem and
	// the detectors resume monitoring from zero.
	for _, tk := range pendings {
		if err := back.Observe(tk.ID, 55); err != nil {
			t.Fatalf("v4 pending ticket %s: %v", tk.ID, err)
		}
	}
	di, _ = back.Drift("typed")
	warmed := false
	for _, a := range di.Arms {
		warmed = warmed || a.Samples > 0
	}
	if !warmed {
		t.Fatal("post-upgrade detectors absorbed no residuals")
	}
}

// TestSnapshotReadsV5: the v5 writer differed from v6/v7 only in the
// version marker for streams that never merged fleet deltas (the dist
// block is omitted until ApplyDelta runs), so the v5 → v7 upgrade is
// byte-stable for every single-node snapshot.
func TestSnapshotReadsV5(t *testing.T) {
	clock := &fakeClock{t: time.Unix(9850, 0)}
	s, _ := buildMixedService(t, clock)
	var current bytes.Buffer
	if err := s.Save(&current); err != nil {
		t.Fatal(err)
	}
	// What the PR 5 writer would have produced for the same service.
	v5 := reversion(t, current.Bytes(), 7, 5)
	back, err := Load(bytes.NewReader(v5), ServiceOptions{Now: clock.now})
	if err != nil {
		t.Fatalf("loading v5 envelope: %v", err)
	}
	var resaved bytes.Buffer
	if err := back.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), current.Bytes()) {
		t.Fatal("v5 → v7 upgrade is not byte-stable for single-node streams")
	}
}

// TestSnapshotReadsV6: the v6 writer differed from v7 only in the
// version marker for streams with a static arm set and no cache (the
// "arms" and "cache" blocks are omitted in the steady state), so the
// v6 → v7 upgrade is byte-stable for every pre-elasticity snapshot.
func TestSnapshotReadsV6(t *testing.T) {
	clock := &fakeClock{t: time.Unix(9875, 0)}
	s, _ := buildMixedService(t, clock)
	var current bytes.Buffer
	if err := s.Save(&current); err != nil {
		t.Fatal(err)
	}
	// "statuses" marks the v7 arms block ("arms" itself also appears
	// inside drift/dist blocks, so it can't discriminate).
	if bytes.Contains(current.Bytes(), []byte(`"statuses"`)) || bytes.Contains(current.Bytes(), []byte(`"cache"`)) {
		t.Fatal("static-arm-set snapshot grew an arms/cache block")
	}
	// What the PR 6 writer would have produced for the same service.
	v6 := reversion(t, current.Bytes(), 7, 6)
	back, err := Load(bytes.NewReader(v6), ServiceOptions{Now: clock.now})
	if err != nil {
		t.Fatalf("loading v6 envelope: %v", err)
	}
	var resaved bytes.Buffer
	if err := back.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), current.Bytes()) {
		t.Fatal("v6 → v7 upgrade is not byte-stable for static streams")
	}
}

// TestSnapshotRestoreRejectsCorruptDriftState: a v5 drift block whose
// detector set disagrees with the stream's arms, or whose detector
// state fails validation, is refused rather than silently monitoring
// the wrong thing.
func TestSnapshotRestoreRejectsCorruptDriftState(t *testing.T) {
	clock := &fakeClock{t: time.Unix(9900, 0)}
	s, _ := buildMixedService(t, clock)
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	// Detector-level corruption: a negative min_samples fails the drift
	// package's config validation.
	corrupt := bytes.Replace(snap.Bytes(), []byte(`"min_samples": 30`), []byte(`"min_samples": -30`), 1)
	if bytes.Equal(corrupt, snap.Bytes()) {
		t.Fatal("min_samples marker not found")
	}
	if _, err := Load(bytes.NewReader(corrupt), ServiceOptions{}); err == nil {
		t.Fatal("corrupt detector config accepted")
	}
	// Structural corruption: drop one arm's detector so the count no
	// longer matches the hardware set (via generic JSON surgery — the
	// loader must reject whatever the formatting).
	var env map[string]any
	if err := json.Unmarshal(snap.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	mangled := false
	for _, raw := range env["streams"].([]any) {
		stream := raw.(map[string]any)
		if d, ok := stream["drift"].(map[string]any); ok {
			arms := d["arms"].([]any)
			d["arms"] = arms[:len(arms)-1]
			mangled = true
			break
		}
	}
	if !mangled {
		t.Fatal("no drift block found to mangle")
	}
	blob, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(blob), ServiceOptions{}); err == nil {
		t.Fatal("detector/arm count mismatch accepted")
	}
}

// TestSnapshotRestoreRejectsCorruptPolicyState: a policy engine state
// whose envelope (spec, hardware, dim) or stream adaptation contradicts
// the policy it wraps — another type, another shape, another parameter
// or seed, another window — is refused rather than serving one policy
// under another's name or memory.
func TestSnapshotRestoreRejectsCorruptPolicyState(t *testing.T) {
	s := NewService(ServiceOptions{})
	specs := map[string]PolicySpec{
		"ucb":    {Type: PolicyLinUCB, Beta: 1.5},
		"ts":     {Type: PolicyLinTS, PosteriorScale: 0.8, Seed: 3},
		"eps":    {Type: PolicyEpsGreedy, Epsilon: 0.2, Seed: 4},
		"soft":   {Type: PolicySoftmax, Temperature: 2, Seed: 5},
		"greedy": {Type: PolicyGreedy},
		"rand":   {Type: PolicyRandom, Seed: 6},
	}
	// Two windowed streams: a LinUCB primary, and an Algorithm 1 primary
	// (outside the adaptation check: core keeps its own codec) with a
	// LinTS shadow that replays under the stream's window.
	window := AdaptSpec{Mode: AdaptWindow, Window: 8}
	configs := map[string]StreamConfig{
		"win": {Hardware: testHW(), Dim: 1, Policy: PolicySpec{Type: PolicyLinUCB}, Adapt: window},
		"alg-win": {Hardware: testHW(), Dim: 1, Adapt: window,
			Shadows: []ShadowConfig{{Name: "ts", Policy: PolicySpec{Type: PolicyLinTS, Seed: 8}}}},
	}
	for name, spec := range specs {
		configs[name] = StreamConfig{Hardware: testHW(), Dim: 1, Policy: spec}
	}
	for name, cfg := range configs {
		if err := s.CreateStream(name, cfg); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			tk, err := s.Recommend(name, []float64{float64(i%5 + 1)})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Observe(tk.ID, float64(10+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(snap.Bytes()), ServiceOptions{}); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	// longer appends a fourth, valid hardware entry to an envelope: a
	// copy of the first under a new name.
	longer := func(eng map[string]any) {
		hw := eng["hardware"].([]any)
		extra := maps.Clone(hw[0].(map[string]any))
		extra["name"] = "H3"
		eng["hardware"] = append(hw, extra)
	}
	forgetting := map[string]any{"mode": AdaptForgetting, "factor": 0.9}
	cases := []struct {
		name, stream string
		corrupt      func(stream, engine, spec, pol map[string]any)
	}{
		{"hardware longer than model-based policy", "ucb", func(_, eng, _, _ map[string]any) { longer(eng) }},
		{"hardware longer than random policy", "rand", func(_, eng, _, _ map[string]any) { longer(eng) }},
		{"adapt edited under a windowed primary", "win", func(st, _, _, _ map[string]any) { st["adapt"] = forgetting }},
		{"adapt removed under a windowed primary", "win", func(st, _, _, _ map[string]any) { delete(st, "adapt") }},
		{"adapt removed under a windowed LinTS shadow", "alg-win", func(st, _, _, _ map[string]any) { delete(st, "adapt") }},
		{"adapt edited under a windowed LinTS shadow", "alg-win", func(st, _, _, _ map[string]any) { st["adapt"] = forgetting }},
		{"linucb spec over greedy policy", "greedy", func(st, _, spec, _ map[string]any) {
			st["policy"], spec["type"], spec["beta"] = PolicyLinUCB, PolicyLinUCB, 1.0
		}},
		{"engine dim over policy dim", "ucb", func(_, eng, _, _ map[string]any) { eng["dim"] = 3.0 }},
		{"arm count", "ucb", func(_, _, _, pol map[string]any) { pol["num_arms"] = 2.0 }},
		{"policy beta", "ucb", func(_, _, _, pol map[string]any) { pol["beta"] = 2.5 }},
		{"spec beta", "ucb", func(_, _, spec, _ map[string]any) { spec["beta"] = 2.5 }},
		{"posterior scale", "ts", func(_, _, _, pol map[string]any) { pol["scale"] = 0.3 }},
		{"epsilon", "eps", func(_, _, _, pol map[string]any) { pol["epsilon"] = 0.5 }},
		{"temperature", "soft", func(_, _, _, pol map[string]any) { pol["temp"] = 9.0 }},
		{"policy seed", "eps", func(_, _, _, pol map[string]any) { pol["seed"] = 99.0 }},
		{"spec seed", "rand", func(_, _, spec, _ map[string]any) { spec["seed"] = 99.0 }},
		{"seed on unseeded policy", "ucb", func(_, _, _, pol map[string]any) { pol["seed"] = 7.0 }},
	}
	for _, tc := range cases {
		var env map[string]any
		if err := json.Unmarshal(snap.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, raw := range env["streams"].([]any) {
			st := raw.(map[string]any)
			if st["name"] != tc.stream {
				continue
			}
			eng := st["engine"].(map[string]any)
			spec, _ := eng["spec"].(map[string]any) // Algorithm 1 state has neither
			pol, _ := eng["policy"].(map[string]any)
			tc.corrupt(st, eng, spec, pol)
			found = true
		}
		if !found {
			t.Fatalf("%s: stream %q not in snapshot", tc.name, tc.stream)
		}
		blob, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(blob), ServiceOptions{}); err == nil {
			t.Errorf("%s: corrupt policy state accepted", tc.name)
		}
	}
}

// TestSnapshotAdaptiveStreamRoundTrip: adaptive streams — forgetting,
// window (with live buffers), and an on_drift reset stream with
// recorded detections — survive save/load byte-for-byte and keep their
// adaptation semantics.
func TestSnapshotAdaptiveStreamRoundTrip(t *testing.T) {
	clock := &fakeClock{t: time.Unix(9950, 0)}
	s := NewService(ServiceOptions{Now: clock.now})
	mk := func(name string, adapt AdaptSpec, policy PolicySpec) {
		t.Helper()
		if err := s.CreateStream(name, StreamConfig{
			Hardware: testHW(), Dim: 1, Policy: policy, Adapt: adapt,
			Options: core.Options{ZeroEpsilon: true, Seed: 9},
		}); err != nil {
			t.Fatal(err)
		}
	}
	mk("forget", AdaptSpec{Mode: AdaptForgetting, Factor: 0.9}, PolicySpec{})
	mk("window", AdaptSpec{Mode: AdaptWindow, Window: 8}, PolicySpec{})
	mk("window-ucb", AdaptSpec{Mode: AdaptWindow, Window: 8}, PolicySpec{Type: PolicyLinUCB})
	mk("reset", AdaptSpec{OnDrift: DriftReset, DriftThreshold: 10, DriftDelta: 0.1,
		DriftMinSamples: 3, DriftWarmup: 3}, PolicySpec{})
	names := []string{"forget", "window", "window-ucb", "reset"}
	for i := 0; i < 30; i++ {
		x := []float64{float64(i%5 + 1)}
		for _, name := range names {
			if err := s.ObserveDirectOutcome(name, i%3, x, Outcome{Runtime: 10 + 2*x[0]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Push the reset stream's arm 0 through a drift so detections and
	// resets are non-zero in the snapshot.
	for i := 0; i < 20; i++ {
		if err := s.ObserveDirectOutcome("reset", 0, []float64{3}, Outcome{Runtime: 500}); err != nil {
			t.Fatal(err)
		}
	}
	di, err := s.Drift("reset")
	if err != nil {
		t.Fatal(err)
	}
	if di.Detections == 0 || di.Resets == 0 {
		t.Fatalf("reset stream recorded %d detections / %d resets, want both > 0", di.Detections, di.Resets)
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
		t.Fatal("adaptive snapshot not byte-for-byte stable across load/save")
	}
	for _, name := range names {
		adapt := infoOf(t, back, name).Adapt
		want := infoOf(t, s, name).Adapt
		if adapt != want {
			t.Fatalf("stream %q restored adapt %+v, want %+v", name, adapt, want)
		}
	}
	rdi, err := back.Drift("reset")
	if err != nil {
		t.Fatal(err)
	}
	if rdi.Detections != di.Detections || rdi.Resets != di.Resets {
		t.Fatalf("restored drift state %d/%d, want %d/%d", rdi.Detections, rdi.Resets, di.Detections, di.Resets)
	}
	// The restored window streams keep sliding identically to the
	// originals under further identical traffic.
	for i := 0; i < 20; i++ {
		x := []float64{float64(i%5 + 1)}
		for _, name := range []string{"window", "window-ucb"} {
			if err := s.ObserveDirectOutcome(name, 1, x, Outcome{Runtime: 100 + 5*x[0]}); err != nil {
				t.Fatal(err)
			}
			if err := back.ObserveDirectOutcome(name, 1, x, Outcome{Runtime: 100 + 5*x[0]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range []string{"window", "window-ucb"} {
		a, err := s.PredictAll(name, []float64{3})
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.PredictAll(name, []float64{3})
		if err != nil {
			t.Fatal(err)
		}
		if a[1] != b[1] {
			t.Fatalf("stream %q diverged after restore: %v vs %v", name, a[1], b[1])
		}
	}
}

// TestLoadRefusesRoundOutOfRange: an engine's round counter outside
// [0, core.MaxLoadedRound] fails the load, for Algorithm 1 (v7.json) and for
// a policy engine and a shadow (v5.json), rather than serving a stream
// whose next observe wraps the counter.
func TestLoadRefusesRoundOutOfRange(t *testing.T) {
	for _, c := range []struct {
		file  string
		round string
	}{
		{"v7.json", `"round": 40,`},
		{"v5.json", `"round": 35,`},
	} {
		data := string(readGolden(t, c.file))
		n := strings.Count(data, c.round)
		if n == 0 {
			t.Fatalf("%s: no %s", c.file, c.round)
		}
		for i := 0; i < n; i++ {
			for _, bad := range []int{-5, core.MaxLoadedRound + 1, math.MaxInt} {
				edited := replaceNth(data, c.round, fmt.Sprintf(`"round": %d,`, bad), i)
				if _, err := Load(strings.NewReader(edited), ServiceOptions{}); err == nil {
					t.Fatalf("%s: round %d at occurrence %d loaded", c.file, bad, i)
				}
			}
		}
	}
}

// replaceNth replaces the i-th (from 0) occurrence of old in s.
func replaceNth(s, old, new string, i int) string {
	at := 0
	for ; i > 0; i-- {
		at += strings.Index(s[at:], old) + len(old)
	}
	at += strings.Index(s[at:], old)
	return s[:at] + new + s[at+len(old):]
}

// BenchmarkLoadService times Load of one snapshot holding a live stream
// of every policy type, a windowed LinUCB stream and a LinTS shadow on
// it, each trained on 24 observations: the restore path each engine,
// primary or shadow, takes on start-up and replica bootstrap.
//
//	go test ./internal/serve/ -run='^$' -bench='LoadService$' -benchmem -benchtime=200x
func BenchmarkLoadService(b *testing.B) {
	s := NewService(ServiceOptions{})
	configs := map[string]StreamConfig{
		"windowed": {
			Hardware: testHW(), Dim: 2, Policy: PolicySpec{Type: PolicyLinUCB},
			Adapt:   AdaptSpec{Mode: AdaptWindow, Window: 16},
			Shadows: []ShadowConfig{{Name: "ts", Policy: PolicySpec{Type: PolicyLinTS, Seed: 7}}},
		},
	}
	for _, kind := range []string{
		PolicyAlgorithm1, PolicyLinUCB, PolicyLinTS, PolicyEpsGreedy,
		PolicyGreedy, PolicySoftmax, PolicyRandom,
	} {
		configs[kind] = StreamConfig{
			Hardware: testHW(), Dim: 2, Options: core.Options{Seed: 7},
			Policy: PolicySpec{Type: kind, Seed: 7},
		}
	}
	for name, cfg := range configs {
		if err := s.CreateStream(name, cfg); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 24; j++ {
			arm, x, rt := deltaObservation(j)
			if err := s.ObserveDirectOutcome(name, arm, x, Outcome{Runtime: rt}); err != nil {
				b.Fatal(err)
			}
		}
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(snap.Bytes()), ServiceOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

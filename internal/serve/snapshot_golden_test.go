package serve

// On-disk cross-version snapshot fixtures. The in-process version tests
// (snapshot_version_test.go) synthesize old envelopes from the current
// writer; these goldens pin the same compatibility promise against
// checked-in files under testdata/snapshots/, so a loader regression
// against bytes written by an older release fails even if the writer
// and the strip helpers drift together.
//
// Regenerate with:
//
//	UPDATE_SNAPSHOT_GOLDENS=1 go test -run TestRegenerateSnapshotGoldens ./internal/serve/
//
// and review the diff — rewriting a fixture is a compatibility event.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"banditware/internal/core"
	"banditware/internal/hardware"
	"banditware/internal/schema"
)

const goldenDir = "testdata/snapshots"

// goldenClock pins saved_at in every fixture.
func goldenClock() *fakeClock { return &fakeClock{t: time.Unix(9500, 0)} }

// buildGoldenV2Service mirrors the PR 2 shape: schemaless raw-vector
// streams, a shadow, one pending ticket.
func buildGoldenV2Service(t *testing.T, clock *fakeClock) *Service {
	t.Helper()
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
	if err := s.AttachShadow("alg1", "ts-shadow", PolicySpec{Type: PolicyLinTS, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		for _, name := range []string{"alg1", "ucb"} {
			tk, err := s.Recommend(name, []float64{float64(i%12 + 1)})
			if err != nil {
				t.Fatal(err)
			}
			if name == "alg1" && i == 29 {
				continue // leave one ticket pending
			}
			if err := s.Observe(tk.ID, float64(15+i%9*6)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// buildGoldenV1Envelope mirrors the PR 1 writer: Algorithm 1 state in
// the "bandit" field, no policy tag, one pending ticket.
func buildGoldenV1Envelope(t *testing.T) []byte {
	t.Helper()
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
		"saved_at": time.Unix(9500, 0).UTC(),
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
				"features": []float64{7}, "issued_at_ns": time.Unix(9499, 0).UnixNano(),
			}},
		}},
	}
	blob, err := json.MarshalIndent(v1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}

// buildGoldenDelta produces a deterministic peer delta for the mixed
// service's two streams: a fleet peer with the same stream set learns
// on its own traffic slice, and the delta is everything it learned.
func buildGoldenDelta(t *testing.T) []byte {
	t.Helper()
	clock := goldenClock()
	peer := NewService(ServiceOptions{Now: clock.now, TicketTTL: time.Hour})
	if err := peer.CreateStream("typed", StreamConfig{
		Hardware: testHW(), Schema: testSchemaFields(), Options: core.Options{Seed: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if err := peer.CreateStream("plain", StreamConfig{
		Hardware: testHW(), Dim: 1, Policy: PolicySpec{Type: PolicyLinUCB, Beta: 2},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		ctx := schema.Context{
			Numeric:     map[string]float64{"num_tasks": float64(10 + i*31%200), "input_mb": float64(3 + i*17%500)},
			Categorical: map[string]string{"site": []string{"expanse", "nautilus", "local"}[i%3]},
		}
		if err := peer.ObserveDirectOutcomeCtx("typed", i%len(testHW()), ctx, Outcome{Runtime: float64(12 + i%11*5)}); err != nil {
			t.Fatal(err)
		}
		if err := peer.ObserveDirect("plain", i%len(testHW()), []float64{float64(i%7 + 1)}, float64(25+i%6*9)); err != nil {
			t.Fatal(err)
		}
	}
	cap, err := peer.CaptureDelta(peer.NewSyncState())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRegenerateSnapshotGoldens rewrites the fixtures from the current
// writer. Skipped unless explicitly requested.
func TestRegenerateSnapshotGoldens(t *testing.T) {
	if os.Getenv("UPDATE_SNAPSHOT_GOLDENS") == "" {
		t.Skip("set UPDATE_SNAPSHOT_GOLDENS=1 to rewrite testdata/snapshots/")
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join(goldenDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// v5/v4/v3 share the mixed service before any fleet merge; the
	// older envelopes are the byte-stable downgrades the version tests
	// pin. v6 is the same service after absorbing a peer's delta (the
	// dist blocks appear; the v6 body is the v7 save re-versioned,
	// which the byte-stable upgrade promise makes exact for static arm
	// sets), and v6-delta.json is that delta envelope itself (the delta
	// wire format is unchanged in v7). v7.json and v7-churn.json pin
	// the current writer: a cache-enabled service, and one that churned
	// its arm set mid-traffic.
	mixed, _ := buildMixedService(t, goldenClock())
	var single bytes.Buffer
	if err := mixed.Save(&single); err != nil {
		t.Fatal(err)
	}
	write("v5.json", reversion(t, single.Bytes(), 7, 5))
	write("v4.json", stripDriftBlocks(t, reversion(t, single.Bytes(), 7, 4)))
	write("v3.json", stripRewardFields(stripDriftBlocks(t, reversion(t, single.Bytes(), 7, 3))))

	delta := buildGoldenDelta(t)
	// Delta envelopes are compact JSON, so the version marker has no
	// space (reversion expects the indented form).
	v6delta := bytes.Replace(delta, []byte(`"version":7`), []byte(`"version":6`), 1)
	if bytes.Equal(v6delta, delta) {
		t.Fatal("delta version marker not found")
	}
	write("v6-delta.json", v6delta)
	if _, err := mixed.ApplyDelta(bytes.NewReader(delta)); err != nil {
		t.Fatal(err)
	}
	var v6 bytes.Buffer
	if err := mixed.Save(&v6); err != nil {
		t.Fatal(err)
	}
	write("v6.json", reversion(t, v6.Bytes(), 7, 6))

	var v2cur bytes.Buffer
	if err := buildGoldenV2Service(t, goldenClock()).Save(&v2cur); err != nil {
		t.Fatal(err)
	}
	write("v2.json", stripRewardFields(stripDriftBlocks(t, reversion(t, v2cur.Bytes(), 7, 2))))

	write("v1.json", buildGoldenV1Envelope(t))

	var v7 bytes.Buffer
	if err := buildGoldenV7Service(t, goldenClock(), false).Save(&v7); err != nil {
		t.Fatal(err)
	}
	write("v7.json", v7.Bytes())
	var churn bytes.Buffer
	if err := buildGoldenV7Service(t, goldenClock(), true).Save(&churn); err != nil {
		t.Fatal(err)
	}
	write("v7-churn.json", churn.Bytes())
}

// buildGoldenV7Service mirrors the PR 9 additions: a cache-enabled
// stream, and — with churn — a mid-traffic arm add (warm-started),
// drain, and trial add, so the v7 "arms" and "cache" blocks are
// exercised with non-steady state.
func buildGoldenV7Service(t *testing.T, clock *fakeClock, churn bool) *Service {
	t.Helper()
	s := NewService(ServiceOptions{Now: clock.now, TicketTTL: time.Hour})
	if err := s.CreateStream("cached", StreamConfig{
		Hardware: testHW(), Dim: 1,
		Options: core.Options{Seed: 11, ZeroEpsilon: true},
		Cache:   &CacheSpec{Capacity: 64, Budget: 0.25, Bits: 16},
	}); err != nil {
		t.Fatal(err)
	}
	serve := func(rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			tk, err := s.Recommend("cached", []float64{float64(i%6 + 1)})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Observe(tk.ID, float64(20+i%9*4+tk.Arm*7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	serve(40)
	if !churn {
		return s
	}
	if _, err := s.AddArm("cached", ArmAdd{
		Hardware: hardware.Config{Name: "fresh", CPUs: 16, MemoryGB: 64},
		Warm:     "pooled",
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.DrainArm("cached", 0); err != nil {
		t.Fatal(err)
	}
	serve(20)
	if _, err := s.AddArm("cached", ArmAdd{
		Hardware: hardware.Config{Name: "probe", CPUs: 4, MemoryGB: 16, GPUs: 1},
		Warm:     "nearest", Trial: true,
	}); err != nil {
		t.Fatal(err)
	}
	serve(10)
	return s
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with UPDATE_SNAPSHOT_GOLDENS=1): %v", err)
	}
	return data
}

// TestSnapshotGoldenFixtures loads every checked-in envelope version
// into the current service and pins per-version facts plus the upgrade
// promises: v7 and v7-churn round-trip byte-for-byte (arms/cache
// blocks included); the delta fixture is rejected by Load, applied by
// ApplyDelta, and reproduces the v6 fixture from the v5 one; v2–v6
// re-save as a v7 that differs from the fixture only in its version
// marker; v1 upgrades with models, counters, and pending tickets
// intact.
func TestSnapshotGoldenFixtures(t *testing.T) {
	load := func(t *testing.T, name string) *Service {
		t.Helper()
		s, err := Load(bytes.NewReader(readGolden(t, name)), ServiceOptions{Now: goldenClock().now})
		if err != nil {
			t.Fatalf("loading %s: %v", name, err)
		}
		return s
	}
	resave := func(t *testing.T, s *Service) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	t.Run("v6", func(t *testing.T) {
		fixture := readGolden(t, "v6.json")
		s := load(t, "v6.json")
		if !bytes.Equal(resave(t, s), reversion(t, fixture, 6, 7)) {
			t.Fatal("v6 → v7 upgrade is not byte-stable modulo the version marker")
		}
		info, err := s.StreamInfo("typed")
		if err != nil {
			t.Fatal(err)
		}
		if info.Schema == nil || len(info.Shadows) != 1 || info.Pending != 5 {
			t.Fatalf("v6 restore info = %+v", info)
		}
		if !bytes.Contains(fixture, []byte(`"drift"`)) {
			t.Fatal("v6 fixture lost its drift blocks")
		}
		// The fixture service absorbed a fleet peer's delta, so its dist
		// blocks (the foreign-contribution accounting) must survive the
		// round trip.
		if !bytes.Contains(fixture, []byte(`"dist"`)) {
			t.Fatal("v6 fixture lost its dist blocks")
		}
	})

	t.Run("v6-delta.json", func(t *testing.T) {
		fixture := readGolden(t, "v6-delta.json")
		// A delta envelope is not a snapshot: Load must refuse it …
		if _, err := Load(bytes.NewReader(fixture), ServiceOptions{}); err == nil {
			t.Fatal("Load accepted a delta envelope")
		}
		// … while ApplyDelta consumes it. Applying to the pre-merge v5
		// service reproduces the v6 fixture's fleet state.
		s := load(t, "v5.json")
		stats, err := s.ApplyDelta(bytes.NewReader(fixture))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Streams != 2 || stats.Arms == 0 || stats.Rounds == 0 || len(stats.SkippedUnknown) != 0 {
			t.Fatalf("delta fixture stats = %+v", stats)
		}
		if !bytes.Equal(resave(t, s), reversion(t, readGolden(t, "v6.json"), 6, 7)) {
			t.Fatal("v5 fixture + delta fixture does not reproduce the v6 fixture")
		}
	})

	for _, tc := range []struct {
		name    string
		version int
	}{{"v5.json", 5}, {"v4.json", 4}, {"v3.json", 3}, {"v2.json", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			fixture := readGolden(t, tc.name)
			s := load(t, tc.name)
			if got, want := resave(t, s), reversion(t, fixture, tc.version, 7); !bytes.Equal(got, want) {
				t.Fatalf("%s → v7 upgrade is not byte-stable modulo the version marker", tc.name)
			}
			name := "typed"
			if tc.version == 2 {
				name = "alg1"
			}
			info, err := s.StreamInfo(name)
			if err != nil {
				t.Fatal(err)
			}
			if info.Reward.Type != RewardRuntime {
				t.Fatalf("%s restore reward = %+v, want runtime default", tc.name, info.Reward)
			}
			// v4 carried reward aggregates; the pre-reward envelopes
			// restart them at zero.
			if tc.version >= 4 && info.RewardTotal == 0 {
				t.Fatalf("%s restore dropped reward aggregates: %+v", tc.name, info)
			}
			if tc.version < 4 && info.RewardTotal != 0 {
				t.Fatalf("%s restore invented reward aggregates: %+v", tc.name, info)
			}
			if len(info.Shadows) != 1 {
				t.Fatalf("%s restore lost shadows: %+v", tc.name, info)
			}
		})
	}

	t.Run("v1.json", func(t *testing.T) {
		s := load(t, "v1.json")
		info, err := s.StreamInfo("legacy-v1")
		if err != nil {
			t.Fatal(err)
		}
		if info.Policy != PolicyAlgorithm1 || info.Round != 40 || info.Issued != 41 || info.Pending != 1 {
			t.Fatalf("v1 restore info = %+v", info)
		}
		if err := s.Observe("legacy-v1#28", 42); err != nil {
			t.Fatalf("v1 pending ticket lost: %v", err)
		}
		if !bytes.Contains(resave(t, s), []byte(`"version": 7`)) {
			t.Fatal("v1 re-save is not a v7 envelope")
		}
	})

	t.Run("v7.json", func(t *testing.T) {
		fixture := readGolden(t, "v7.json")
		s := load(t, "v7.json")
		if !bytes.Equal(resave(t, s), fixture) {
			t.Fatal("v7 fixture does not round-trip byte-for-byte")
		}
		if !bytes.Contains(fixture, []byte(`"cache"`)) {
			t.Fatal("v7 fixture lost its cache block")
		}
		info, err := s.StreamInfo("cached")
		if err != nil {
			t.Fatal(err)
		}
		if info.Cache == nil || info.Cache.Hits == 0 {
			t.Fatalf("v7 restore lost cache counters: %+v", info.Cache)
		}
		if info.ArmStates != nil {
			t.Fatalf("static v7 fixture restored arm states %v", info.ArmStates)
		}
	})

	t.Run("v7-churn.json", func(t *testing.T) {
		fixture := readGolden(t, "v7-churn.json")
		s := load(t, "v7-churn.json")
		if !bytes.Equal(resave(t, s), fixture) {
			t.Fatal("v7-churn fixture does not round-trip byte-for-byte")
		}
		if !bytes.Contains(fixture, []byte(`"arms"`)) {
			t.Fatal("v7-churn fixture lost its arms block")
		}
		info, err := s.StreamInfo("cached")
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"draining", "active", "active", "active", "trial"}
		if len(info.ArmStates) != len(want) {
			t.Fatalf("v7-churn restore arm states = %v, want %v", info.ArmStates, want)
		}
		for i, st := range want {
			if info.ArmStates[i] != st {
				t.Fatalf("v7-churn restore arm states = %v, want %v", info.ArmStates, want)
			}
		}
		// The restored stream keeps serving under its lifecycle: the
		// draining arm 0 and trial arm 4 never take live traffic.
		for i := 0; i < 30; i++ {
			tk, err := s.Recommend("cached", []float64{float64(i%6 + 1)})
			if err != nil {
				t.Fatal(err)
			}
			if tk.Arm == 0 || tk.Arm == 4 {
				t.Fatalf("non-servable arm %d issued on restored stream", tk.Arm)
			}
		}
	})
}

// TestLoadRejectsMalformedPending edits the v3 fixture's "plain" stream
// in memory (next_seq 40, pending seqs 7…39 on arm 2 with one feature)
// into tickets the stream could never have issued. Each must fail Load
// with an error naming the stream and the seq: accepted, a duplicated
// seq desynchronises the pending count from the saved tickets, and a
// seq at or past next_seq is later shadowed by the live ticket issued
// under the same seq.
func TestLoadRejectsMalformedPending(t *testing.T) {
	ticket := func(seq uint64, arm int, features ...float64) map[string]any {
		return map[string]any{
			"id": ticketID("plain", seq), "seq": seq, "arm": arm,
			"features": features, "issued_at_ns": 9500000000000,
		}
	}
	cases := []struct {
		name string
		edit func(st map[string]any)
		want string
	}{
		{"duplicate seq", func(st map[string]any) {
			st["pending"] = append(st["pending"].([]any), ticket(7, 2, 1))
		}, "seq 7 "},
		{"seq past next_seq", func(st map[string]any) {
			st["pending"] = append(st["pending"].([]any), ticket(60, 2, 1))
		}, "seq 60 "},
		{"arm out of range", func(st map[string]any) {
			st["pending"] = append(st["pending"].([]any), ticket(8, 99, 1))
		}, "seq 8 "},
		{"negative arm", func(st map[string]any) {
			st["pending"] = append(st["pending"].([]any), ticket(8, -1, 1))
		}, "seq 8 "},
		{"feature length", func(st map[string]any) {
			st["pending"] = append(st["pending"].([]any), ticket(8, 2, 1, 2, 3))
		}, "seq 8 "},
		{"more than max_pending", func(st map[string]any) {
			st["max_pending"] = 4
		}, "max_pending 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var env map[string]any
			if err := json.Unmarshal(readGolden(t, "v3.json"), &env); err != nil {
				t.Fatal(err)
			}
			for _, st := range env["streams"].([]any) {
				if st := st.(map[string]any); st["name"] == "plain" {
					tc.edit(st)
				}
			}
			data, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Load(bytes.NewReader(data), ServiceOptions{Now: goldenClock().now})
			if err == nil {
				t.Fatal("Load accepted the malformed pending ticket")
			}
			if msg := err.Error(); !strings.Contains(msg, `"plain"`) || !strings.Contains(msg, tc.want) {
				t.Fatalf("Load error %q does not name stream \"plain\" and %q", msg, tc.want)
			}
		})
	}
}

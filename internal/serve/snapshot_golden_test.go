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
	if err := s.AttachShadow("alg1", ShadowConfig{Name: "ts-shadow", Policy: PolicySpec{Type: PolicyLinTS, Seed: 6}}); err != nil {
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
		if err := peer.observeDirect("typed", i%len(testHW()), nil, &ctx, Outcome{Runtime: float64(12 + i%11*5)}); err != nil {
			t.Fatal(err)
		}
		if err := peer.ObserveDirectOutcome("plain", i%len(testHW()), []float64{float64(i%7 + 1)}, Outcome{Runtime: float64(25 + i%6*9)}); err != nil {
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
	// sets).
	//
	// v6-delta.json is not rewritten: it is the frozen delta envelope of
	// the version-6 writer, which listed "rounds" before "arms". Today's
	// writer lists "arms" first, and ApplyDelta decodes by name, so the
	// fixture pins that an old-order envelope from a mixed-version fleet
	// still applies; the golden test's "current delta writer" case pins
	// today's envelope against the same v5 → v6 transition.
	//
	// v7.json and v7-churn.json are not rewritten: they are frozen
	// inputs since the writer lost the recommendation cache. They were
	// recorded from cache-enabled streams (one of them churning its arm
	// set mid-traffic), whose decisions the current service cannot
	// replay, and they pin that such files keep loading with their
	// "cache" blocks ignored.
	mixed, _ := buildMixedService(t, goldenClock())
	var single bytes.Buffer
	if err := mixed.Save(&single); err != nil {
		t.Fatal(err)
	}
	write("v5.json", reversion(t, single.Bytes(), 7, 5))
	write("v4.json", stripDriftBlocks(t, reversion(t, single.Bytes(), 7, 4)))
	write("v3.json", stripRewardFields(stripDriftBlocks(t, reversion(t, single.Bytes(), 7, 3))))

	if _, err := mixed.ApplyDelta(bytes.NewReader(buildGoldenDelta(t))); err != nil {
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

}

func readGolden(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		tb.Fatalf("missing golden fixture (regenerate with UPDATE_SNAPSHOT_GOLDENS=1): %v", err)
	}
	return data
}

// TestSnapshotGoldenFixtures loads every checked-in envelope version
// into the current service and pins per-version facts plus the upgrade
// promises: v7 and v7-churn re-save byte-for-byte as the fixture minus
// its ignored "cache" blocks (arms blocks included); the delta fixture
// is rejected by Load, applied by ApplyDelta, and reproduces the v6
// fixture from the v5 one; v2–v6 re-save as a v7 that differs from the
// fixture only in its version marker; v1 upgrades with models,
// counters, and pending tickets intact.
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

	t.Run("current delta writer", func(t *testing.T) {
		// Today's writer's envelope for the same peer traffic makes the
		// same v5 → v6 transition as the frozen fixture.
		s := load(t, "v5.json")
		if _, err := s.ApplyDelta(bytes.NewReader(buildGoldenDelta(t))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resave(t, s), reversion(t, readGolden(t, "v6.json"), 6, 7)) {
			t.Fatal("v5 fixture + current delta does not reproduce the v6 fixture")
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
		if !bytes.Equal(resave(t, s), stripCacheBlocks(t, fixture)) {
			t.Fatal("v7 fixture does not re-save byte-for-byte minus its cache block")
		}
		info, err := s.StreamInfo("cached")
		if err != nil {
			t.Fatal(err)
		}
		if info.ArmStates != nil {
			t.Fatalf("static v7 fixture restored arm states %v", info.ArmStates)
		}
	})

	t.Run("v7-churn.json", func(t *testing.T) {
		fixture := readGolden(t, "v7-churn.json")
		s := load(t, "v7-churn.json")
		if !bytes.Equal(resave(t, s), stripCacheBlocks(t, fixture)) {
			t.Fatal("v7-churn fixture does not re-save byte-for-byte minus its cache block")
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

// malformedPending lists edits of the v3 fixture's "plain" stream
// (next_seq 40, pending seqs 7…39 on arm 2 with one feature) into
// tickets the stream could never have issued, each with the text Load's
// error must carry besides the stream name.
var malformedPending = []struct {
	name string
	edit func(st map[string]any)
	want string
}{
	{"duplicate seq", appendPlainTicket(7, 2, 1), "seq 7 "},
	{"seq past next_seq", appendPlainTicket(60, 2, 1), "seq 60 "},
	{"arm out of range", appendPlainTicket(8, 99, 1), "seq 8 "},
	{"negative arm", appendPlainTicket(8, -1, 1), "seq 8 "},
	{"feature length", appendPlainTicket(8, 2, 1, 2, 3), "seq 8 "},
	{"more than max_pending", func(st map[string]any) { st["max_pending"] = 4 }, "max_pending 4"},
}

// appendPlainTicket returns an edit appending one pending ticket to the
// "plain" stream.
func appendPlainTicket(seq uint64, arm int, features ...float64) func(map[string]any) {
	return func(st map[string]any) {
		st["pending"] = append(st["pending"].([]any), map[string]any{
			"id": ticketID("plain", seq), "seq": seq, "arm": arm,
			"features": features, "issued_at_ns": 9500000000000,
		})
	}
}

// editGoldenStream returns the named fixture with edit applied to its
// stream called stream.
func editGoldenStream(tb testing.TB, fixture, stream string, edit func(map[string]any)) []byte {
	tb.Helper()
	var env map[string]any
	if err := json.Unmarshal(readGolden(tb, fixture), &env); err != nil {
		tb.Fatal(err)
	}
	for _, st := range env["streams"].([]any) {
		if st := st.(map[string]any); st["name"] == stream {
			edit(st)
		}
	}
	data, err := json.Marshal(env)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// oversizedShapes lists edits of the v3 fixture that declare an engine
// shape far larger than the state behind it: 2⁴⁰ arms or dimensions,
// whose estimators alone would need terabytes. Load must reject each
// from the payload it holds, before building anything of that shape.
var oversizedShapes = []struct {
	name, stream string
	edit         func(st map[string]any)
}{
	{"estimator dim", "plain", func(st map[string]any) {
		policyState(st)["arms"].([]any)[0].(map[string]any)["dim"] = 1 << 40
	}},
	{"policy arm count", "plain", func(st map[string]any) { policyState(st)["num_arms"] = 1 << 40 }},
	{"policy dim", "plain", func(st map[string]any) { policyState(st)["dim"] = 1 << 40 }},
	{"envelope dim", "plain", func(st map[string]any) { st["engine"].(map[string]any)["dim"] = 1 << 40 }},
	{"algorithm1 dim", "typed", func(st map[string]any) { st["engine"].(map[string]any)["dim"] = 1 << 40 }},
	// A random policy carries no estimators, so nothing in the payload
	// bounds its dimension; the stream's dimension limit does.
	{"random dim", "plain", func(st map[string]any) {
		st["policy"] = PolicyRandom
		eng := st["engine"].(map[string]any)
		eng["spec"] = map[string]any{"type": PolicyRandom}
		eng["dim"] = 1 << 30
		eng["policy"] = map[string]any{"type": PolicyRandom, "num_arms": 3, "dim": 1 << 30}
	}},
}

// policyState returns the policy.State inside a policy-typed stream's
// engine envelope.
func policyState(st map[string]any) map[string]any {
	return st["engine"].(map[string]any)["policy"].(map[string]any)
}

// TestLoadRejectsOversizedShapes: each oversizedShapes edit fails Load
// with an error naming the stream.
func TestLoadRejectsOversizedShapes(t *testing.T) {
	for _, tc := range oversizedShapes {
		t.Run(tc.name, func(t *testing.T) {
			data := editGoldenStream(t, "v3.json", tc.stream, tc.edit)
			_, err := Load(bytes.NewReader(data), ServiceOptions{Now: goldenClock().now})
			if err == nil {
				t.Fatal("Load accepted the oversized shape")
			}
			if !strings.Contains(err.Error(), `"`+tc.stream+`"`) {
				t.Fatalf("Load error %q does not name stream %q", err, tc.stream)
			}
		})
	}
}

// TestLoadRejectsMalformedPending: each malformedPending edit must fail
// Load with an error naming the stream and the seq. Accepted, a
// duplicated seq desynchronises the pending count from the saved
// tickets, and a seq at or past next_seq is later shadowed by the live
// ticket issued under the same seq.
func TestLoadRejectsMalformedPending(t *testing.T) {
	for _, tc := range malformedPending {
		t.Run(tc.name, func(t *testing.T) {
			data := editGoldenStream(t, "v3.json", "plain", tc.edit)
			_, err := Load(bytes.NewReader(data), ServiceOptions{Now: goldenClock().now})
			if err == nil {
				t.Fatal("Load accepted the malformed pending ticket")
			}
			if msg := err.Error(); !strings.Contains(msg, `"plain"`) || !strings.Contains(msg, tc.want) {
				t.Fatalf("Load error %q does not name stream \"plain\" and %q", msg, tc.want)
			}
		})
	}
}

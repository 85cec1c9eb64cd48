package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"banditware/internal/core"
)

// FuzzAdaptSpec drives the adaptation-spec wire decoder and compiler
// with arbitrary documents. Invariants: decoding and compiling never
// panic, and a compiled spec is canonical — compiling it again is the
// identity, which snapshot round-trips depend on.
func FuzzAdaptSpec(f *testing.F) {
	seeds := []string{
		`"forgetting"`,
		`"window"`,
		`"none"`,
		`"decay"`,
		`{"mode":"forgetting","factor":0.97}`,
		`{"mode":"window","window":200}`,
		`{"mode":"forgetting","factor":0.9,"on_drift":"reset","drift_delta":0.1,"drift_threshold":12,"drift_min_samples":30,"drift_warmup":25}`,
		`{"mode":"none","on_drift":"observe"}`,
		`{"mode":"forgetting","factor":2}`,
		`{"mode":"window","factor":0.5}`,
		`{"mode":"sideways"}`,
		`{"on_drift":"panic"}`,
		`{"mode":"forgetting","factor":0.97,"bogus":1}`,
		`{"drift_min_samples":-5}`,
		`7`,
		`null`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec AdaptSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		out, err := compileAdapt(spec)
		if err != nil {
			return
		}
		again, err := compileAdapt(out)
		if err != nil {
			t.Fatalf("canonical spec %+v does not re-compile: %v", out, err)
		}
		if again != out {
			t.Fatalf("compileAdapt is not idempotent: %+v then %+v", out, again)
		}
	})
}

// FuzzArmLifecycleRequest drives the arm-addition wire decoder, its
// resolve() validation, and the full AddArm path with arbitrary
// documents. Invariants: nothing panics, every resolve rejection wraps
// ErrBadArmRequest, and a resolved request either grows a live stream by
// exactly one arm or is rejected with a service-vocabulary error —
// arbitrary wire input can never leave a stream with a half-applied arm
// set.
func FuzzArmLifecycleRequest(f *testing.F) {
	seeds := []string{
		`{"hardware_spec":"H3=8x64"}`,
		`{"hardware_spec":"H3=8x64x1","warm":"nearest","warm_weight":0.5}`,
		`{"hardware":{"name":"H3","cpus":8,"memory_gb":64}}`,
		`{"hardware":{"name":"H3","cpus":8,"memory_gb":64,"gpus":2},"trial":true}`,
		`{"hardware_spec":"H3=8x64","warm":"pooled","trial":true}`,
		`{"hardware_spec":"H3=8x64","warm":"cold"}`,
		`{"hardware":{"name":"H3","cpus":8,"memory_gb":64},"hardware_spec":"H3=8x64"}`,
		`{"warm":"pooled"}`,
		`{"hardware_spec":"A=1x1;B=2x2"}`,
		`{"hardware_spec":"H3=8x64","warm":"sideways"}`,
		`{"hardware_spec":"H3=8x64","warm_weight":2}`,
		`{"hardware_spec":"H3=8x64","warm_weight":-0.1}`,
		`{"hardware_spec":"H0=2x16"}`,
		`{"hardware":{"cpus":-3,"memory_gb":-1}}`,
		`{"hardware":{"name":"H3","cpus":1e18,"memory_gb":0}}`,
		`{"hardware_spec":""}`,
		`{}`,
		`null`,
		`7`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req armAddRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		add, err := req.resolve()
		if err != nil {
			if !errors.Is(err, ErrBadArmRequest) {
				t.Fatalf("resolve rejection outside the wire vocabulary: %v", err)
			}
			return
		}
		s := NewService(ServiceOptions{})
		if err := s.CreateStream("s", StreamConfig{
			Hardware: testHW(), Dim: 1, Options: core.Options{Seed: 1},
		}); err != nil {
			t.Fatal(err)
		}
		idx, err := s.AddArm("s", add)
		if err != nil {
			if !errors.Is(err, ErrBadArmRequest) && !errors.Is(err, ErrUnsupported) {
				t.Fatalf("AddArm(%+v) rejection outside the service vocabulary: %v", add, err)
			}
			// Rejected adds leave the stream exactly as it was.
			if arms, _ := s.Arms("s"); len(arms) != 3 {
				t.Fatalf("rejected add left %d arms, want 3", len(arms))
			}
			return
		}
		arms, err := s.Arms("s")
		if err != nil {
			t.Fatal(err)
		}
		if idx != 3 || len(arms) != 4 {
			t.Fatalf("accepted add: index %d over %d arms, want 3 over 4", idx, len(arms))
		}
		wantStatus := "active"
		if add.Trial {
			wantStatus = "trial"
		}
		if arms[idx].Status != wantStatus {
			t.Fatalf("accepted add: status %q, want %q", arms[idx].Status, wantStatus)
		}
	})
}

// FuzzParseTicketID drives the ticket-ID parser with arbitrary strings,
// as they arrive in observe bodies. Invariants: nothing panics, every
// rejection wraps ErrBadTicket, and an accepted ID is canonical: its
// (stream, seq) pair re-renders through ticketID to the same string, so
// no two spellings redeem one ticket.
func FuzzParseTicketID(f *testing.F) {
	for _, seed := range []string{
		"jobs#0", "jobs#ff", "a#b#1", "s.1_x-2#ffffffffffffffff",
		"jobs#10000000000000000", "#1", "jobs#", "jobs", "", "#",
		"jobs#-1", "jobs#+1", "jobs#0x1", "jobs#1_0", "jobs# 1", "jobs#00ff",
		"jobs#FF", "a/b#1", "..#1", "jobs#00",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, id string) {
		name, seq, err := ParseTicketID(id)
		if err != nil {
			if !errors.Is(err, ErrBadTicket) {
				t.Fatalf("ParseTicketID(%q) = %v, want ErrBadTicket", id, err)
			}
			return
		}
		if back := ticketID(name, seq); back != id {
			t.Fatalf("ParseTicketID(%q) = (%q, %d), which renders as %q", id, name, seq, back)
		}
	})
}

// FuzzLoadService drives the snapshot loader with arbitrary bytes, as
// they arrive from a state file or a snapshot import. Invariants:
// nothing panics, a rejected input returns an error and no service, and
// an accepted input is stable under the writer — with the clock pinned
// at the input's saved_at, as the golden fixture tests pin it, Save →
// Load → Save reproduces the same bytes.
func FuzzLoadService(f *testing.F) {
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		f.Add(readGolden(f, e.Name()))
	}
	for _, tc := range malformedPending {
		f.Add(editGoldenStream(f, "v3.json", "plain", tc.edit))
	}
	for _, tc := range oversizedShapes {
		f.Add(editGoldenStream(f, "v3.json", tc.stream, tc.edit))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		clock := goldenClock()
		var probe struct {
			SavedAt time.Time `json:"saved_at"`
		}
		if json.Unmarshal(data, &probe) == nil && !probe.SavedAt.IsZero() {
			clock.t = probe.SavedAt
		}
		opts := ServiceOptions{Now: clock.now}
		s, err := Load(bytes.NewReader(data), opts)
		if err != nil {
			if s != nil {
				t.Fatalf("Load rejected the input (%v) but returned a service", err)
			}
			return
		}
		var first bytes.Buffer
		if err := s.Save(&first); err != nil {
			t.Fatalf("accepted snapshot does not re-save: %v", err)
		}
		back, err := Load(bytes.NewReader(first.Bytes()), opts)
		if err != nil {
			t.Fatalf("Load rejects its own save: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := back.Save(&second); err != nil {
			t.Fatalf("reloaded snapshot does not re-save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save → Load → Save is not byte-stable:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"banditware/internal/core"
	"banditware/internal/linalg"
	"banditware/internal/regress"
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

// deltaFuzzLive are the live streams FuzzApplyDelta's peer captures
// from and its target merges into: one per engine family.
var deltaFuzzLive = []StreamConfig{
	{Hardware: testHW(), Dim: 2, Options: core.Options{Seed: 1}},
	{Hardware: testHW(), Dim: 2, Policy: PolicySpec{Type: PolicyLinUCB}},
}

// deltaFuzzService returns base (or an empty service) with the live
// streams "live0" (Algorithm 1) and "live1" (LinUCB) added.
func deltaFuzzService(tb testing.TB, base []byte) *Service {
	tb.Helper()
	opts := ServiceOptions{Now: goldenClock().now}
	s := NewService(opts)
	if base != nil {
		var err error
		if s, err = Load(bytes.NewReader(base), opts); err != nil {
			tb.Fatal(err)
		}
	}
	for i, cfg := range deltaFuzzLive {
		if err := s.CreateStream(fmt.Sprintf("live%d", i), cfg); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// FuzzApplyDelta drives ApplyDelta with arbitrary bytes, as they arrive
// from a fleet peer. The target is the v5 fixture service (the LinUCB
// and Algorithm 1 streams v6-delta.json was captured for) plus one live
// stream of each family; the seeds are that fixture and two live
// captures from a peer. Invariants: nothing panics; a rejection is an
// error in the delta vocabulary; and, accepted or not (a rejected
// envelope keeps the streams it merged before the bad one), every arm
// keeps finite sufficient statistics, a positive-definite Gram matrix
// and finite predictions, and after a local observe on each live
// stream the service saves and loads back.
func FuzzApplyDelta(f *testing.F) {
	v5 := readGolden(f, "v5.json")
	f.Add(readGolden(f, "v6-delta.json"))
	// Hostile envelopes: a huge b over a weakly informed arm, whose model
	// would solve to infinite weights, and one stream listed twice with
	// near-maximal A, whose merged statistics would overflow.
	huge := `{"name":"%s","policy":"%s","dim":2,"arms":[{"dim":2,"n":1,"a":[0,0,0,0,0,0,0,0,0],"b":[1e300,1e300,-1e300]},{"dim":2},{"dim":2}]}`
	big := `{"name":"live1","policy":"linucb","dim":2,"arms":[{"dim":2,"n":1,"a":[1.7976931348623157e308,0,0,0,0,0,0,0,0],"b":[0,0,0]},{"dim":2},{"dim":2}]}`
	// Totals and rounds that one envelope carries safely and a second
	// would overflow.
	totals := `{"name":"live0","policy":"algorithm1","dim":2,"reward_total":1.7e308,"runtime_total":1.7e308}`
	rounds := `{"name":"live1","policy":"linucb","dim":2,"rounds":9223372036854775807}`
	// Rounds that take each live stream to exactly core.MaxRounds, which
	// the invariant's local observe then passes.
	maxed := fmt.Sprintf(`{"name":"live0","policy":"algorithm1","dim":2,"rounds":%d},{"name":"live1","policy":"linucb","dim":2,"rounds":%[1]d}`, core.MaxRounds)
	for _, streams := range []string{
		fmt.Sprintf(huge, "live0", PolicyAlgorithm1) + "," + fmt.Sprintf(huge, "live1", PolicyLinUCB),
		big + "," + big,
		totals,
		totals + "," + totals,
		rounds + "," + rounds,
		maxed,
	} {
		f.Add([]byte(`{"format":"banditware-service","version":7,"delta":true,"streams":[` + streams + `]}`))
	}
	peer := deltaFuzzService(f, nil)
	sync := peer.NewSyncState()
	for round := 0; round < 2; round++ {
		for i := 0; i < 24; i++ {
			arm, x, rt := deltaObservation(round*24 + i)
			for _, name := range []string{"live0", "live1"} {
				if err := peer.ObserveDirectOutcome(name, arm, x, Outcome{Runtime: rt}); err != nil {
					f.Fatal(err)
				}
			}
		}
		c, err := peer.CaptureDelta(sync)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		c.Commit()
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := deltaFuzzService(t, v5)
		if _, err := s.ApplyDelta(bytes.NewReader(data)); err != nil &&
			!errors.Is(err, ErrBadDelta) && !errors.Is(err, ErrNotMergeable) && !errors.Is(err, regress.ErrBadInput) {
			t.Fatalf("rejection outside the delta vocabulary: %v", err)
		}
		for _, st := range s.allStreams() {
			st.mu.Lock()
			err := checkMergedArms(st.engine)
			st.mu.Unlock()
			if err != nil {
				t.Fatalf("stream %q after ApplyDelta: %v", st.name, err)
			}
		}
		for _, name := range []string{"live0", "live1"} {
			if err := s.ObserveDirectOutcome(name, 0, []float64{1, 2}, Outcome{Runtime: 3}); err != nil {
				t.Fatalf("observe on %q after ApplyDelta: %v", name, err)
			}
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("Save after ApplyDelta: %v", err)
		}
		if _, err := Load(&buf, ServiceOptions{}); err != nil {
			t.Fatalf("Load after ApplyDelta and an observe: %v", err)
		}
	})
}

// checkMergedArms reports an arm whose sufficient statistics are not
// finite, whose Gram matrix is not positive definite, or whose model
// predicts a non-finite runtime for the all-ones context. The
// statistics are the estimators' full ones, prior included, read back
// from the engine's SaveState document.
func checkMergedArms(eng Engine) error {
	est, err := engineEstimators(eng)
	if err != nil {
		return err
	}
	d := eng.Dim() + 1
	for a, r := range est {
		suff := r.Sufficient()
		if err := suff.Validate(); err != nil {
			return err
		}
		gram := &linalg.Matrix{Rows: d, Cols: d, Data: suff.A}
		if _, err := linalg.NewCholesky(gram); err != nil {
			return fmt.Errorf("arm %d Gram matrix: %w", a, err)
		}
	}
	x := make([]float64, eng.Dim())
	for i := range x {
		x[i] = 1
	}
	preds, err := eng.PredictAllInto(x, nil)
	if err != nil {
		return err
	}
	for a, p := range preds {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("arm %d predicts %v", a, p)
		}
	}
	return nil
}

// engineEstimators decodes an engine's per-arm estimators from its
// SaveState document: Algorithm 1 keeps them under arms[].rls, the
// linear policies under policy.arms.
func engineEstimators(eng Engine) ([]*regress.RLS, error) {
	var buf bytes.Buffer
	if err := eng.SaveState(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		Arms []struct {
			RLS *regress.RLS `json:"rls"`
		} `json:"arms"`
		Policy struct {
			Arms []*regress.RLS `json:"arms"`
		} `json:"policy"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	est := doc.Policy.Arms
	for _, a := range doc.Arms {
		est = append(est, a.RLS)
	}
	if err := regress.CheckEstimators(est, len(eng.Hardware()), eng.Dim()); err != nil {
		return nil, err
	}
	return est, nil
}

// rawFuzzStreams are the streams FuzzServiceRawVectors drives: an
// Algorithm 1 and a LinUCB stream, both raw and of dimension 1.
var rawFuzzStreams = []struct {
	name string
	cfg  StreamConfig
}{
	{"alg1", StreamConfig{Hardware: testHW(), Dim: 1, Options: core.Options{Seed: 1}}},
	{"linucb", StreamConfig{Hardware: testHW(), Dim: 1, Policy: PolicySpec{Type: PolicyLinUCB}}},
}

// rawFuzzStep encodes one FuzzServiceRawVectors step: the op byte, then
// the feature's and the runtime's float64 bits, little-endian.
func rawFuzzStep(op byte, x, runtime float64) []byte {
	b := binary.LittleEndian.AppendUint64([]byte{op}, math.Float64bits(x))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(runtime))
}

// FuzzServiceRawVectors drives the in-process raw-vector API —
// RecommendInto, ObserveSeq and ObserveDirectOutcome — with arbitrary float64
// bit patterns. The input is a program of 17-byte steps (rawFuzzStep).
// Bit 0 of the op byte picks the stream; (op>>1)%3 picks recommend,
// ticket observe or direct observe; op>>3 picks which issued ticket to
// redeem, or the arm of a direct observe (an out-of-range arm
// included). Any call may be refused. Invariants, after any program:
// nothing panics, Save succeeds, and for every context in the unit box
// every PredictAll value on both streams and every PredictWithCI bound
// of the Algorithm 1 stream is finite. (Past the unit box a finite
// linear model can still overflow: a weight of 1e307 predicts -Inf at
// x = -100.)
func FuzzServiceRawVectors(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, prog := range [][]rawFuzzStepArgs{
		{{0, 1, 0}, {2, 0, 12}, {4, 2, 7}},
		{{0, 1e200, 0}, {2, 0, 5}, {2, 0, 5}},
		{{1, 1e200, 0}, {3, 0, 5}, {5, 1e200, 5}},
		{{0, nan, 0}, {0, inf, 0}, {0, -inf, 0}, {4, nan, 5}, {4, inf, 5}},
		{{0, 3, 0}, {2, 0, 1e308}, {0, 3, 0}, {2, 0, -1e308}, {2, 0, nan}, {2, 0, inf}},
		{{4, 1e154, 1e308}, {5, -1e154, 1e308}, {12, 2, 3}, {28, 2, 3}},
		{{0, 5e-324, 0}, {2, 0, 5e-324}, {4, -0.0, 0}, {1, math.MaxFloat64, 0}, {3, 0, math.MaxFloat64}},
	} {
		var b []byte
		for _, s := range prog {
			b = append(b, rawFuzzStep(s.op, s.x, s.runtime)...)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		svc := NewService(ServiceOptions{})
		for _, s := range rawFuzzStreams {
			if err := svc.CreateStream(s.name, s.cfg); err != nil {
				t.Fatal(err)
			}
			// Two observations per arm, so every interval starts finite.
			for arm := range testHW() {
				for i := 1; i <= 2; i++ {
					if err := svc.ObserveDirectOutcome(s.name, arm, []float64{float64(2 * i)}, Outcome{Runtime: float64(20*i + 5*arm)}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		var tk Ticket
		var issued [2][]uint64
		for ; len(prog) >= 17; prog = prog[17:] {
			op := prog[0]
			x := []float64{math.Float64frombits(binary.LittleEndian.Uint64(prog[1:]))}
			runtime := math.Float64frombits(binary.LittleEndian.Uint64(prog[9:]))
			s, pick := int(op&1), int(op>>3)
			name := rawFuzzStreams[s].name
			switch (op >> 1) % 3 {
			case 0:
				if svc.RecommendInto(name, x, &tk) == nil {
					issued[s] = append(issued[s], tk.Seq)
				}
			case 1:
				seq := uint64(pick)
				if n := len(issued[s]); n > 0 {
					seq = issued[s][pick%n]
				}
				svc.ObserveSeq(name, seq, runtime)
			case 2:
				svc.ObserveDirectOutcome(name, pick%(len(testHW())+1), x, Outcome{Runtime: runtime})
			}
		}
		if err := svc.Save(io.Discard); err != nil {
			t.Fatalf("Save: %v", err)
		}
		for _, s := range rawFuzzStreams {
			for _, x := range [][]float64{{-1}, {0}, {0.5}, {1}} {
				preds, err := svc.PredictAll(s.name, x)
				if err != nil {
					t.Fatalf("PredictAll(%s, %v): %v", s.name, x, err)
				}
				for arm, p := range preds {
					if math.IsNaN(p) || math.IsInf(p, 0) {
						t.Fatalf("%s: arm %d predicts %v at %v", s.name, arm, p, x)
					}
				}
				ivs, err := svc.PredictWithCI(s.name, x, 0)
				if err != nil && !errors.Is(err, ErrUnsupported) { // only Algorithm 1 has intervals
					t.Fatalf("PredictWithCI(%s, %v): %v", s.name, x, err)
				}
				for arm, iv := range ivs {
					for _, v := range []float64{iv.Lo, iv.Mid, iv.Hi} {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("%s: arm %d interval %+v at %v", s.name, arm, iv, x)
						}
					}
				}
			}
		}
	})
}

type rawFuzzStepArgs struct {
	op         byte
	x, runtime float64
}

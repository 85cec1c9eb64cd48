package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"banditware/internal/core"
	"banditware/internal/hardware"
	"banditware/internal/rng"
)

func testHW() hardware.Set {
	return hardware.Set{
		{Name: "H0", CPUs: 2, MemoryGB: 16},
		{Name: "H1", CPUs: 3, MemoryGB: 24},
		{Name: "H2", CPUs: 4, MemoryGB: 16},
	}
}

// fakeClock is a manually advanced clock for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestService(t *testing.T, opts ServiceOptions, streams ...string) *Service {
	t.Helper()
	s := NewService(opts)
	for i, name := range streams {
		err := s.CreateStream(name, StreamConfig{
			Hardware: testHW(), Dim: 1, Options: core.Options{Seed: uint64(i + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// infoOf returns the named stream's StreamInfo, failing the test when
// the stream does not exist.
func infoOf(t testing.TB, s *Service, name string) StreamInfo {
	t.Helper()
	info, err := s.StreamInfo(name)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestStreamRegistry(t *testing.T) {
	s := newTestService(t, ServiceOptions{}, "alpha", "beta")
	if err := s.CreateStream("alpha", StreamConfig{Hardware: testHW(), Dim: 1}); !errors.Is(err, ErrStreamExists) {
		t.Fatalf("duplicate create: %v, want ErrStreamExists", err)
	}
	for _, bad := range []string{"", ".", "..", "a/b", "a#b", "white space", string(make([]byte, 200))} {
		if err := s.CreateStream(bad, StreamConfig{Hardware: testHW(), Dim: 1}); !errors.Is(err, ErrBadStreamName) {
			t.Fatalf("create(%q): %v, want ErrBadStreamName", bad, err)
		}
	}
	streams := s.Stats().Streams
	if len(streams) != 2 || streams[0].Name != "alpha" || streams[1].Name != "beta" {
		t.Fatalf("streams = %+v", streams)
	}
	if s.NumStreams() != 2 {
		t.Fatalf("NumStreams = %d", s.NumStreams())
	}
	if err := s.RemoveStream("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recommend("alpha", []float64{1}); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("recommend on removed stream: %v", err)
	}
	if err := s.RemoveStream("alpha"); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestTicketIDRoundTrip(t *testing.T) {
	id := ticketID("my-stream.v2", 0x2a)
	stream, seq, err := ParseTicketID(id)
	if err != nil || stream != "my-stream.v2" || seq != 0x2a {
		t.Fatalf("parsed %q -> %q, %d, %v", id, stream, seq, err)
	}
	for _, bad := range []string{"", "nohash", "#5", "x#", "x#zz",
		"jobs#FF", "jobs#00ff", "jobs#00", "jobs#-1", "jobs#10000000000000000",
		"a/b#1", "a#b#1", "..#1", strings.Repeat("s", 129) + "#1"} {
		if _, _, err := ParseTicketID(bad); !errors.Is(err, ErrBadTicket) {
			t.Fatalf("ParseTicketID(%q): %v, want ErrBadTicket", bad, err)
		}
	}
	if stream, seq, err := ParseTicketID("jobs#0"); err != nil || stream != "jobs" || seq != 0 {
		t.Fatalf("ParseTicketID(\"jobs#0\") = %q, %d, %v", stream, seq, err)
	}
	if _, seq, err := ParseTicketID("jobs#ffffffffffffffff"); err != nil || seq != 1<<64-1 {
		t.Fatalf("ParseTicketID of the largest seq = %d, %v", seq, err)
	}
}

// TestNonFiniteFeaturesRefusedAtEntry: a raw feature vector holding
// NaN or ±Inf is refused with core.ErrBadValue at every entry point,
// before a ticket, sequence number or model moves. A ticket issued for
// [+Inf] used to sit in the ledger and make Save fail for the whole
// service until it left, and a refused direct observe used to leave the
// arm's interval at NaN.
func TestNonFiniteFeaturesRefusedAtEntry(t *testing.T) {
	s := newTestService(t, ServiceOptions{}, "j")
	for i := 1; i <= 5; i++ {
		if err := s.ObserveDirectOutcome("j", 0, []float64{float64(i)}, Outcome{Runtime: 3*float64(i) + 5}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.stream("j")
	if err != nil {
		t.Fatal(err)
	}
	seq := st.nextSeq
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := []float64{bad}
		if tk, err := s.Recommend("j", x); !errors.Is(err, core.ErrBadValue) {
			t.Fatalf("Recommend(%v) = %+v, %v; want core.ErrBadValue", x, tk, err)
		}
		if _, err := s.recommendBatch("j", [][]float64{{1}, x}, nil); !errors.Is(err, core.ErrBadValue) {
			t.Fatalf("recommendBatch with %v: %v, want core.ErrBadValue", x, err)
		}
		if err := s.ObserveDirectOutcome("j", 0, x, Outcome{Runtime: 5}); !errors.Is(err, core.ErrBadValue) {
			t.Fatalf("ObserveDirectOutcome(%v): %v, want core.ErrBadValue", x, err)
		}
		if _, err := s.PredictAll("j", x); !errors.Is(err, core.ErrBadValue) {
			t.Fatalf("PredictAll(%v): %v, want core.ErrBadValue", x, err)
		}
		if _, err := s.PredictWithCI("j", x, 0); !errors.Is(err, core.ErrBadValue) {
			t.Fatalf("PredictWithCI(%v): %v, want core.ErrBadValue", x, err)
		}
		if _, err := s.Exploit("j", x); !errors.Is(err, core.ErrBadValue) {
			t.Fatalf("Exploit(%v): %v, want core.ErrBadValue", x, err)
		}
	}
	if st.nextSeq != seq {
		t.Fatalf("nextSeq moved from %d to %d on refused recommends", seq, st.nextSeq)
	}
	info, err := s.StreamInfo("j")
	if err != nil {
		t.Fatal(err)
	}
	if info.Issued != 0 || info.Pending != 0 || info.Observed != 5 {
		t.Fatalf("refused requests moved the stream: %+v", info)
	}
	if err := s.Save(new(bytes.Buffer)); err != nil {
		t.Fatalf("Save after refused non-finite requests: %v", err)
	}
	ivs, err := s.PredictWithCI("j", []float64{3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if iv := ivs[0]; math.IsNaN(iv.Lo) || math.IsInf(iv.Lo, 0) || math.IsNaN(iv.Hi) || math.IsInf(iv.Hi, 0) {
		t.Fatalf("arm 0 interval %+v after refused observes", iv)
	}
}

func TestTicketLifecycle(t *testing.T) {
	s := newTestService(t, ServiceOptions{}, "jobs")
	tk, err := s.Recommend("jobs", []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Stream != "jobs" || tk.ID == "" || len(tk.Predicted) != 3 {
		t.Fatalf("ticket = %+v", tk)
	}
	info, _ := s.StreamInfo("jobs")
	if info.Pending != 1 || info.Issued != 1 {
		t.Fatalf("info = %+v", info)
	}
	// Bad runtime must not burn the ticket.
	if err := s.Observe(tk.ID, math.NaN()); !errors.Is(err, core.ErrBadValue) {
		t.Fatalf("NaN runtime: %v", err)
	}
	if err := s.Observe(tk.ID, 42.0); err != nil {
		t.Fatal(err)
	}
	if n := infoOf(t, s, "jobs").Round; n != 1 {
		t.Fatalf("round = %d after observe", n)
	}
	if err := s.Observe(tk.ID, 42.0); !errors.Is(err, ErrTicketNotFound) {
		t.Fatalf("double observe: %v", err)
	}
	if err := s.Observe("jobs#ffff", 1); !errors.Is(err, ErrTicketNotFound) {
		t.Fatalf("unknown ticket: %v", err)
	}
	if err := s.Observe("nostream#1", 1); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("unknown stream ticket: %v", err)
	}
	if err := s.Observe("garbage", 1); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("garbage ticket: %v", err)
	}
}

func TestTicketExpiryAndEviction(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	s := NewService(ServiceOptions{Now: clock.now, TicketTTL: time.Minute, MaxPending: 3})
	if err := s.CreateStream("jobs", StreamConfig{Hardware: testHW(), Dim: 1}); err != nil {
		t.Fatal(err)
	}
	old, err := s.Recommend("jobs", []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Minute)
	if err := s.Observe(old.ID, 5); !errors.Is(err, ErrTicketExpired) {
		t.Fatalf("expired observe: %v, want ErrTicketExpired", err)
	}
	// Fill past capacity: oldest evicted.
	var ids []string
	for i := 0; i < 4; i++ {
		tk, err := s.Recommend("jobs", []float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, tk.ID)
	}
	if err := s.Observe(ids[0], 5); !errors.Is(err, ErrTicketNotFound) {
		t.Fatalf("evicted observe: %v, want ErrTicketNotFound", err)
	}
	if err := s.Observe(ids[3], 5); err != nil {
		t.Fatalf("fresh observe: %v", err)
	}
	info, _ := s.StreamInfo("jobs")
	if info.Expired != 1 || info.Evicted != 1 {
		t.Fatalf("counters = %+v", info)
	}
}

// TestExpiredTicketsLeaveReads: tickets past their TTL stop counting as
// pending the moment they expire. StreamInfo, Stats and Save each see
// them as expired, without an issue or take on the stream first.
func TestExpiredTicketsLeaveReads(t *testing.T) {
	expiredService := func(t *testing.T) *Service {
		t.Helper()
		clock := &fakeClock{t: time.Unix(1000, 0)}
		s := NewService(ServiceOptions{Now: clock.now, TicketTTL: time.Minute})
		if err := s.CreateStream("jobs", StreamConfig{Hardware: testHW(), Dim: 1}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := s.Recommend("jobs", []float64{float64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		clock.advance(time.Hour)
		return s
	}
	t.Run("StreamInfo", func(t *testing.T) {
		info, err := expiredService(t).StreamInfo("jobs")
		if err != nil {
			t.Fatal(err)
		}
		if info.Pending != 0 || info.Expired != 3 {
			t.Fatalf("pending %d, expired %d; want 0 and 3", info.Pending, info.Expired)
		}
	})
	t.Run("Stats", func(t *testing.T) {
		stats := expiredService(t).Stats()
		if stats.TotalPending != 0 || len(stats.Streams) != 1 || stats.Streams[0].Expired != 3 {
			t.Fatalf("stats = %+v; want 0 pending and 3 expired", stats)
		}
	})
	t.Run("Save", func(t *testing.T) {
		var buf bytes.Buffer
		if err := expiredService(t).Save(&buf); err != nil {
			t.Fatal(err)
		}
		var snap serviceSnap
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		if len(snap.Streams) != 1 || len(snap.Streams[0].Pending) != 0 || snap.Streams[0].Expired != 3 {
			t.Fatalf("saved %d pending tickets, expired %d; want 0 and 3",
				len(snap.Streams[0].Pending), snap.Streams[0].Expired)
		}
	})
}

func TestBatchOps(t *testing.T) {
	s := newTestService(t, ServiceOptions{}, "jobs")
	xs := [][]float64{{1}, {2}, {3}}
	tks, err := s.recommendBatch("jobs", xs, nil)
	if err != nil || len(tks) != 3 {
		t.Fatalf("batch: %v, %d tickets", err, len(tks))
	}
	// A dimension error anywhere rejects the whole batch atomically.
	before, _ := s.StreamInfo("jobs")
	if _, err := s.recommendBatch("jobs", [][]float64{{1}, {2, 9}}, nil); !errors.Is(err, core.ErrDim) {
		t.Fatalf("bad batch: %v, want ErrDim", err)
	}
	after, _ := s.StreamInfo("jobs")
	if after.Issued != before.Issued || after.Pending != before.Pending {
		t.Fatalf("failed batch issued tickets: %+v -> %+v", before, after)
	}

	obs := []ticketObservation{
		{TicketID: tks[0].ID, Runtime: 10},
		{TicketID: "garbage", Runtime: 1},
		{TicketID: tks[1].ID, Runtime: 20},
		{TicketID: tks[0].ID, Runtime: 10}, // double
		{TicketID: "ghost#1", Runtime: 1},  // another stream's ticket
	}
	applied, errs := s.observeBatch("jobs", obs)
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	for i, want := range []error{nil, ErrBadTicket, nil, ErrTicketNotFound} {
		if (want == nil) != (errs[i] == nil) || (want != nil && !errors.Is(errs[i], want)) {
			t.Fatalf("observation %d: err = %v, want %v", i, errs[i], want)
		}
	}
	if want := `ticket "ghost#1" belongs to stream "ghost", not "jobs"`; errs[4] == nil || errs[4].Error() != want {
		t.Fatalf("observation 4: err = %v, want %q", errs[4], want)
	}
	if n := infoOf(t, s, "jobs").Round; n != 2 {
		t.Fatalf("round = %d, want 2", n)
	}
	// A route stream that does not exist fails each well-formed
	// observation of its own tickets by index.
	applied, errs = s.observeBatch("ghost", []ticketObservation{{TicketID: "ghost#1", Runtime: 1}, {TicketID: tks[2].ID, Runtime: -1}})
	if applied != 0 || !errors.Is(errs[0], ErrStreamNotFound) || !errors.Is(errs[1], ErrBadOutcome) {
		t.Fatalf("unknown route stream: applied %d, errs %v", applied, errs)
	}
}

// TestDeterministicPerStream: with fixed seeds, the decision sequence of
// each stream is identical however the streams are interleaved, and
// matches a standalone bandit with the same options.
func TestDeterministicPerStream(t *testing.T) {
	type step struct {
		x       float64
		runtime float64
	}
	// Shared request trace per stream.
	r := rng.New(7)
	steps := make([]step, 60)
	for i := range steps {
		steps[i] = step{x: r.Uniform(1, 100), runtime: r.Uniform(10, 500)}
	}

	// Reference: isolated bandits.
	ref := make(map[string][]int)
	for name, seed := range map[string]uint64{"a": 11, "b": 22} {
		b, err := core.New(testHW(), 1, core.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range steps {
			d, err := b.Recommend([]float64{st.x})
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Observe(d.Arm, []float64{st.x}, st.runtime); err != nil {
				t.Fatal(err)
			}
			ref[name] = append(ref[name], d.Arm)
		}
	}

	// Service: interleave the two streams step by step through the
	// ticket path.
	s := NewService(ServiceOptions{})
	for name, seed := range map[string]uint64{"a": 11, "b": 22} {
		if err := s.CreateStream(name, StreamConfig{Hardware: testHW(), Dim: 1, Options: core.Options{Seed: seed}}); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[string][]int)
	for i, st := range steps {
		order := []string{"a", "b"}
		if i%2 == 1 {
			order = []string{"b", "a"}
		}
		for _, name := range order {
			tk, err := s.Recommend(name, []float64{st.x})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Observe(tk.ID, st.runtime); err != nil {
				t.Fatal(err)
			}
			got[name] = append(got[name], tk.Arm)
		}
	}
	for name := range ref {
		for i := range ref[name] {
			if ref[name][i] != got[name][i] {
				t.Fatalf("stream %s diverged at step %d: %d vs %d", name, i, ref[name][i], got[name][i])
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	clock := &fakeClock{t: time.Unix(5000, 0)}
	s := NewService(ServiceOptions{Now: clock.now, TicketTTL: time.Hour})
	seeds := map[string]uint64{"bp3d": 1, "matmul": 2}
	for name, seed := range seeds {
		if err := s.CreateStream(name, StreamConfig{
			Hardware: testHW(), Dim: 1,
			Options: core.Options{Seed: seed, ToleranceRatio: 0.05},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Train both streams and leave some tickets pending.
	r := rng.New(3)
	var pendings []Ticket
	for name := range seeds {
		for i := 0; i < 40; i++ {
			x := r.Uniform(1, 50)
			tk, err := s.Recommend(name, []float64{x})
			if err != nil {
				t.Fatal(err)
			}
			if i%5 == 4 {
				pendings = append(pendings, tk) // never observed pre-snapshot
				continue
			}
			if err := s.Observe(tk.ID, 3*x+float64(tk.Arm)*10); err != nil {
				t.Fatal(err)
			}
		}
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()), ServiceOptions{Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}

	// Identical per-stream models, ε, round counts, and counters.
	for name := range seeds {
		wantInfo, _ := s.StreamInfo(name)
		gotInfo, err := back.StreamInfo(name)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", wantInfo) != fmt.Sprintf("%+v", gotInfo) {
			t.Fatalf("stream %s info drifted:\n  want %+v\n  got  %+v", name, wantInfo, gotInfo)
		}
		for arm := 0; arm < len(testHW()); arm++ {
			want, _ := s.Model(name, arm)
			got, err := back.Model(name, arm)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(want.Bias-got.Bias) > 1e-12 {
				t.Fatalf("stream %s arm %d bias drifted: %v vs %v", name, arm, want.Bias, got.Bias)
			}
			for j := range want.Weights {
				if math.Abs(want.Weights[j]-got.Weights[j]) > 1e-12 {
					t.Fatalf("stream %s arm %d weights drifted", name, arm)
				}
			}
		}
	}
	// Pending tickets survive the snapshot and are still observable.
	for _, tk := range pendings {
		if err := back.Observe(tk.ID, 123); err != nil {
			t.Fatalf("pending ticket %s lost across snapshot: %v", tk.ID, err)
		}
	}
	// ...and still honor their TTL relative to original issue time.
	extra, err := back.Recommend("bp3d", []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Hour)
	if err := back.Observe(extra.ID, 9); !errors.Is(err, ErrTicketExpired) {
		t.Fatalf("restored TTL not enforced: %v", err)
	}
}

func TestLoadLegacySingleRecommenderState(t *testing.T) {
	b, err := core.New(testHW(), 1, core.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		x := []float64{float64(i + 1)}
		d, err := b.Recommend(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Observe(d.Arm, x, 2*x[0]+float64(d.Arm)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := b.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := Load(&buf, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.StreamInfo("default")
	if err != nil {
		t.Fatal(err)
	}
	if info.Round != 30 {
		t.Fatalf("legacy round = %d, want 30", info.Round)
	}
	wantPred, _ := b.PredictAll([]float64{17})
	gotPred, err := s.PredictAll("default", []float64{17})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantPred {
		if math.Abs(wantPred[i]-gotPred[i]) > 1e-12 {
			t.Fatalf("legacy predictions drifted: %v vs %v", wantPred, gotPred)
		}
	}
}

// TestConcurrentStress drives many goroutines through several streams at
// once; run with -race. Each goroutine does full recommend→observe round
// trips plus occasional reads and snapshots.
func TestConcurrentStress(t *testing.T) {
	streams := []string{"s0", "s1", "s2", "s3", "s4"}
	s := newTestService(t, ServiceOptions{}, streams...)
	const goroutines = 24
	const iters = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := streams[g%len(streams)]
			for i := 0; i < iters; i++ {
				x := []float64{float64(i%50 + 1)}
				tk, err := s.Recommend(name, x)
				if err != nil {
					t.Error(err)
					return
				}
				if err := s.Observe(tk.ID, 5*x[0]+float64(tk.Arm)); err != nil {
					t.Error(err)
					return
				}
				switch i % 25 {
				case 7:
					if _, err := s.PredictAll(name, x); err != nil {
						t.Error(err)
						return
					}
				case 13:
					s.Stats()
				case 19:
					var buf bytes.Buffer
					if err := s.Save(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	stats := s.Stats()
	wantTotal := uint64(goroutines * iters)
	if stats.TotalObserved != wantTotal || stats.TotalIssued != wantTotal {
		t.Fatalf("totals = %+v, want %d issued+observed", stats, wantTotal)
	}
	if stats.TotalPending != 0 {
		t.Fatalf("pending = %d, want 0", stats.TotalPending)
	}
	var roundSum int
	for _, info := range stats.Streams {
		roundSum += info.Round
	}
	if roundSum != int(wantTotal) {
		t.Fatalf("rounds sum = %d, want %d", roundSum, wantTotal)
	}
}

package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"banditware/internal/core"
	"banditware/internal/schema"
)

// Allocation pins for the serving hot path. The zero-allocation
// contract (RecommendInto / RecommendCtxInto / ObserveSeq /
// ObserveOutcome at 0 allocs/op steady-state) is the PR's tentpole;
// these tests fail the build the moment a change re-introduces a
// per-request allocation. The classic and HTTP paths allocate by
// contract (fresh Ticket, rendered ID, JSON codec) — their pins are
// exact current values, failing only on increase.

// warmCycles runs enough recommend/observe cycles to reach the
// steady state: scratch buffers grown, ledger freelist populated,
// RLS factors allocated, ε decayed past the exploration phase.
const warmCycles = 512

func pinAllocs(t *testing.T, name string, pin float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	if got := testing.AllocsPerRun(200, f); got > pin {
		t.Errorf("%s: %.1f allocs/op, pinned at %.1f — the hot path regressed", name, got, pin)
	}
}

func TestAllocRecommendObserveSeqZero(t *testing.T) {
	s := newTestService(t, ServiceOptions{}, "hot")
	x := []float64{1.5}
	var tk Ticket
	for i := 0; i < warmCycles; i++ {
		if err := s.RecommendInto("hot", x, &tk); err != nil {
			t.Fatal(err)
		}
		if err := s.ObserveSeq("hot", tk.Seq, 2.0); err != nil {
			t.Fatal(err)
		}
	}
	pinAllocs(t, "RecommendInto+ObserveSeq", 0, func() {
		if err := s.RecommendInto("hot", x, &tk); err != nil {
			t.Fatal(err)
		}
		if err := s.ObserveSeq("hot", tk.Seq, 2.0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocRecommendIntoZero(t *testing.T) {
	// MaxPending bounds the ledger: once full, each issue evicts and
	// recycles the oldest ticket, so issue-only traffic is allocation
	// free too (no observe required to stay at zero).
	s := NewService(ServiceOptions{MaxPending: 8})
	if err := s.CreateStream("hot", StreamConfig{
		Hardware: testHW(), Dim: 1, Options: core.Options{Seed: 7},
	}); err != nil {
		t.Fatal(err)
	}
	x := []float64{2.5}
	var tk Ticket
	for i := 0; i < warmCycles; i++ {
		if err := s.RecommendInto("hot", x, &tk); err != nil {
			t.Fatal(err)
		}
	}
	pinAllocs(t, "RecommendInto", 0, func() {
		if err := s.RecommendInto("hot", x, &tk); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocRecommendCtxIntoObserveSeq pins the typed-context hot path
// for every policy type: each is allocation free. LinUCB and LinTS
// score arms in regress.RLS's own scratch (Uncertainty, SamplePredict).
func TestAllocRecommendCtxIntoObserveSeq(t *testing.T) {
	pins := []struct {
		policy string
		pin    float64
	}{
		{PolicyAlgorithm1, 0},
		{PolicyGreedy, 0},
		{PolicyEpsGreedy, 0},
		{PolicySoftmax, 0},
		{PolicyRandom, 0},
		{PolicyLinUCB, 0},
		{PolicyLinTS, 0},
	}
	ctx := schema.Context{
		Numeric:     map[string]float64{"num_tasks": 128, "input_mb": 512},
		Categorical: map[string]string{"site": "expanse"},
	}
	for _, tc := range pins {
		t.Run(tc.policy, func(t *testing.T) {
			s := newSchemaService(t, PolicySpec{Type: tc.policy, Seed: 5})
			var tk Ticket
			cycle := func() {
				if err := s.RecommendCtxInto("typed", ctx, &tk); err != nil {
					t.Fatal(err)
				}
				if err := s.ObserveSeq("typed", tk.Seq, 2.0); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < warmCycles; i++ {
				cycle()
			}
			pinAllocs(t, "RecommendCtxInto+ObserveSeq", tc.pin, cycle)
		})
	}
}

func TestAllocObserveOutcomeClassicZero(t *testing.T) {
	// The classic ID-string observe is allocation free too: ParseTicketID
	// substrings, the registry read is lock-free, and the ledger recycles.
	const runs = 200
	s := NewService(ServiceOptions{MaxPending: runs + 2})
	if err := s.CreateStream("hot", StreamConfig{
		Hardware: testHW(), Dim: 1, Options: core.Options{Seed: 11},
	}); err != nil {
		t.Fatal(err)
	}
	x := []float64{1.25}
	var tk Ticket
	for i := 0; i < warmCycles; i++ {
		if err := s.RecommendInto("hot", x, &tk); err != nil {
			t.Fatal(err)
		}
		if err := s.ObserveSeq("hot", tk.Seq, 2.0); err != nil {
			t.Fatal(err)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	// AllocsPerRun runs the body once to warm up, then `runs` times.
	ids := make([]string, 0, runs+1)
	for i := 0; i < runs+1; i++ {
		tk, err := s.Recommend("hot", x)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, tk.ID)
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		if err := s.Observe(ids[next], 2.0); err != nil {
			t.Fatal(err)
		}
		next++
	}); got > 0 {
		t.Errorf("ObserveOutcome: %.1f allocs/op, pinned at 0 — the hot path regressed", got)
	}
}

func TestAllocClassicRecommendPinned(t *testing.T) {
	// Recommend allocates by contract: a rendered ID string and the
	// fresh Ticket's Predicted slice (plus their escape-analysis fallout
	// in the returned Ticket). Pinned at the current exact cost; fails
	// only on increase.
	const pin = 4
	s := newTestService(t, ServiceOptions{}, "hot")
	x := []float64{1.5}
	for i := 0; i < warmCycles; i++ {
		tk, err := s.Recommend("hot", x)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Observe(tk.ID, 2.0); err != nil {
			t.Fatal(err)
		}
	}
	pinAllocs(t, "classic Recommend+Observe", pin, func() {
		tk, err := s.Recommend("hot", x)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Observe(tk.ID, 2.0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocHTTPRecommendObservePinned(t *testing.T) {
	// The HTTP path pays the JSON codec, header map, and recorder; the
	// pin is the current exact cost so codec or handler regressions
	// surface here. Measured on go1.24; fails only on increase.
	const pin = 75
	s := newTestService(t, ServiceOptions{}, "hot")
	h := NewHandler(s)
	x := []float64{1.5}
	var tk Ticket
	for i := 0; i < warmCycles; i++ {
		if err := s.RecommendInto("hot", x, &tk); err != nil {
			t.Fatal(err)
		}
		if err := s.ObserveSeq("hot", tk.Seq, 2.0); err != nil {
			t.Fatal(err)
		}
	}
	recBody := `{"features":[1.5]}`
	do := func(method, path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	// One full round trip per run: recommend over HTTP, observe the
	// returned ticket over HTTP. The ticket ID is rendered from the
	// stream's private sequence counter, which only this test advances.
	seq := uint64(0)
	{
		w := do(http.MethodPost, "/v1/streams/hot/recommend", recBody)
		if w.Code != http.StatusOK {
			t.Fatalf("recommend: %d %s", w.Code, w.Body)
		}
		st, err := s.stream("hot")
		if err != nil {
			t.Fatal(err)
		}
		st.mu.Lock()
		seq = st.nextSeq
		st.mu.Unlock()
		id := ticketID("hot", seq-1)
		w = do(http.MethodPost, "/v1/observe", `{"ticket":"`+id+`","runtime":2.0}`)
		if w.Code != http.StatusOK {
			t.Fatalf("observe: %d %s", w.Code, w.Body)
		}
	}
	pinAllocs(t, "HTTP recommend+observe", pin, func() {
		w := do(http.MethodPost, "/v1/streams/hot/recommend", recBody)
		if w.Code != http.StatusOK {
			t.Fatalf("recommend: %d %s", w.Code, w.Body)
		}
		id := ticketID("hot", seq)
		seq++
		w = do(http.MethodPost, "/v1/observe", `{"ticket":"`+id+`","runtime":2.0}`)
		if w.Code != http.StatusOK {
			t.Fatalf("observe: %d %s", w.Code, w.Body)
		}
	})
}

// BenchmarkRecommendObserveSeqPolicies times one RecommendInto →
// ObserveSeq cycle on a warmed 3-arm stream for every policy type, so
// the CI benchmark gate compares each engine's time and allocations.
func BenchmarkRecommendObserveSeqPolicies(b *testing.B) {
	for _, kind := range []string{
		PolicyAlgorithm1, PolicyLinUCB, PolicyLinTS, PolicyEpsGreedy,
		PolicyGreedy, PolicySoftmax, PolicyRandom,
	} {
		b.Run(kind, func(b *testing.B) {
			s := NewService(ServiceOptions{})
			if err := s.CreateStream("hot", StreamConfig{
				Hardware: testHW(), Dim: 1, Options: core.Options{Seed: 7},
				Policy: PolicySpec{Type: kind, Seed: 7},
			}); err != nil {
				b.Fatal(err)
			}
			x := []float64{1.5}
			var tk Ticket
			cycle := func() {
				if err := s.RecommendInto("hot", x, &tk); err != nil {
					b.Fatal(err)
				}
				if err := s.ObserveSeq("hot", tk.Seq, 2.0+float64(tk.Arm)); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < warmCycles; i++ {
				cycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}

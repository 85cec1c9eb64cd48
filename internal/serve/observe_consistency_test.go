package serve

// Pins the unified error behaviour of every observe path: the scalar
// and outcome forms, single and batch, Go API and HTTP, must classify
// the same failure identically — observation validity first
// (ErrBadOutcome, HTTP 422), then ticket shape (ErrBadTicket), then
// stream resolution (ErrStreamNotFound), then ticket redemption.
// Before this was pinned, a malformed observation on the batch path
// reported "stream not found" or "bad ticket" while the single HTTP
// route reported 422 for the identical request.

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"banditware/internal/core"
)

// badObservations enumerate observation-level failures: each must
// report ErrBadOutcome on every path regardless of the ticket.
func badObservations() map[string]ticketObservation {
	neg := Outcome{Runtime: -5}
	ok := Outcome{Runtime: 5}
	return map[string]ticketObservation{
		"negative runtime (scalar)":  {Runtime: -5},
		"negative runtime (outcome)": {Outcome: &neg},
		"unknown metric":             {Outcome: &Outcome{Runtime: 5, Metrics: map[string]float64{"memoryGB": 1}}},
		"both forms":                 {Runtime: 5, Outcome: &ok},
	}
}

// TestObserveErrorConsistency drives the failure matrix through the Go
// single and batch paths and asserts identical error classes and
// messages.
func TestObserveErrorConsistency(t *testing.T) {
	svc := newTestService(t, ServiceOptions{}, "jobs")
	live, err := svc.Recommend("jobs", []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	tickets := map[string]string{
		"live ticket":    live.ID,
		"unknown ticket": "jobs#ffff",
		"unknown stream": "ghost#1",
		"malformed id":   "no-separator",
	}
	for obsName, obs := range badObservations() {
		for tkName, id := range tickets {
			obs := obs
			obs.TicketID = id
			// Single path: outcome form goes through ObserveOutcome, the
			// scalar form through Observe.
			var single error
			if obs.Outcome != nil && obs.Runtime == 0 {
				single = svc.ObserveOutcome(id, *obs.Outcome)
			} else if obs.Outcome == nil {
				single = svc.Observe(id, obs.Runtime)
			}
			if single != nil && !errors.Is(single, ErrBadOutcome) {
				t.Errorf("%s / %s: single error %v, want ErrBadOutcome", obsName, tkName, single)
			}
			// Batch path on the live ticket's stream: must classify
			// identically, whatever the ticket.
			applied, errs := svc.observeBatch("jobs", []ticketObservation{obs})
			if applied != 0 || errs[0] == nil {
				t.Fatalf("%s / %s: batch applied a malformed observation", obsName, tkName)
			}
			if !errors.Is(errs[0], ErrBadOutcome) {
				t.Errorf("%s / %s: batch error %v, want ErrBadOutcome", obsName, tkName, errs[0])
			}
			if single != nil && errs[0].Error() != single.Error() {
				t.Errorf("%s / %s: batch message %q, single message %q", obsName, tkName, errs[0], single)
			}
		}
	}
	// The live ticket survived every malformed observation above.
	if err := svc.Observe(live.ID, 7); err != nil {
		t.Fatalf("live ticket was burned by a rejected observation: %v", err)
	}

	// With a valid observation, ticket/stream failures classify
	// identically on both paths too, the batch routed to the ticket's
	// own stream.
	for _, c := range []struct {
		id, route string
		want      error
	}{
		{"jobs#ffff", "jobs", ErrTicketNotFound},
		{"ghost#1", "ghost", ErrStreamNotFound},
		{"no-separator", "jobs", ErrBadTicket},
	} {
		tkName, want := c.id, c.want
		single := svc.Observe(tkName, 5)
		_, errs := svc.observeBatch(c.route, []ticketObservation{{TicketID: tkName, Runtime: 5}})
		if !errors.Is(single, want) || !errors.Is(errs[0], want) {
			t.Errorf("ticket %q: single %v / batch %v, want %v", tkName, single, errs[0], want)
		}
		if single.Error() != errs[0].Error() {
			t.Errorf("ticket %q: batch message %q, single message %q", tkName, errs[0], single)
		}
	}
}

// TestHTTPObserveErrorConsistency drives the same matrix over HTTP: the
// top-level and stream-scoped single routes answer 422 for every
// malformed observation (whatever the ticket, including one owned by
// another stream or one that does not parse), and the batch route
// reports the identical error text at the item's index.
func TestHTTPObserveErrorConsistency(t *testing.T) {
	svc, srv := newTestServer(t)
	createJobsStream(t, srv.URL)
	live, err := svc.Recommend("jobs", []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]map[string]any{
		"negative runtime (scalar)":  {"runtime": -5},
		"negative runtime (outcome)": {"outcome": map[string]any{"runtime": -5}},
		"unknown metric":             {"outcome": map[string]any{"runtime": 5, "metrics": map[string]any{"memoryGB": 1}}},
		"both forms":                 {"runtime": 5, "outcome": map[string]any{"runtime": 5}},
	}
	for obsName, body := range bodies {
		for _, id := range []string{live.ID, "jobs#ffff", "ghost#1", "no-separator"} {
			single := map[string]any{"ticket": id}
			for k, v := range body {
				single[k] = v
			}
			var errResp map[string]any
			code := doJSON(t, "POST", srv.URL+"/v1/observe", single, &errResp)
			if code != http.StatusUnprocessableEntity {
				t.Errorf("%s / %s: single status %d, want 422 (%v)", obsName, id, code, errResp)
				continue
			}
			var scopedResp map[string]any
			code = doJSON(t, "POST", srv.URL+"/v1/streams/jobs/observe", single, &scopedResp)
			if code != http.StatusUnprocessableEntity {
				t.Errorf("%s / %s: stream-scoped status %d, want 422 (%v)", obsName, id, code, scopedResp)
			} else if got, want := scopedResp["error"], errResp["error"]; got != want {
				t.Errorf("%s / %s: stream-scoped error %q, top-level error %q", obsName, id, got, want)
			}
			var batchResp observeBatchResponse
			code = doJSON(t, "POST", srv.URL+"/v1/streams/jobs/observe/batch", map[string]any{
				"observations": []map[string]any{single},
			}, &batchResp)
			if code != http.StatusOK || batchResp.Applied != 0 {
				t.Fatalf("%s / %s: batch status %d applied %d", obsName, id, code, batchResp.Applied)
			}
			if got, want := batchResp.Results[0].Error, errResp["error"].(string); got != want {
				t.Errorf("%s / %s: batch error %q, single error %q", obsName, id, got, want)
			}
		}
	}
	// The live ticket still redeems after every rejection above.
	code := doJSON(t, "POST", srv.URL+"/v1/observe", map[string]any{"ticket": live.ID, "runtime": 9}, nil)
	if code != http.StatusOK {
		t.Fatalf("live ticket was burned: status %d", code)
	}
}

// TestRefusedObservationKeepsTicket: an observation the engine refuses
// does not burn its ticket, on any observe path. At x = 1e200 the
// Algorithm 1 update squares the feature past float64, so the engine
// reports core.ErrBadValue; the single, batch and HTTP routes must all
// report that same refusal, again on every retry, and leave the ticket
// pending.
func TestRefusedObservationKeepsTicket(t *testing.T) {
	svc := newTestService(t, ServiceOptions{}, "j")
	for arm := range testHW() {
		for i := 1; i <= 5; i++ {
			if err := svc.ObserveDirectOutcome("j", arm, []float64{float64(i)}, Outcome{Runtime: 3*float64(i) + 5}); err != nil {
				t.Fatal(err)
			}
		}
	}
	tk, err := svc.Recommend("j", []float64{1e200})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	httpErr := func(path string, body any) error {
		var resp errorResponse
		if code := doJSON(t, "POST", srv.URL+path, body, &resp); code != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", path, code)
		}
		return errors.New(resp.Error)
	}
	paths := map[string]func() error{
		"Observe":        func() error { return svc.Observe(tk.ID, 5) },
		"ObserveOutcome": func() error { return svc.ObserveOutcome(tk.ID, Outcome{Runtime: 5}) },
		"ObserveSeq":     func() error { return svc.ObserveSeq("j", tk.Seq, 5) },
		"observeBatch": func() error {
			_, errs := svc.observeBatch("j", []ticketObservation{{TicketID: tk.ID, Runtime: 5}})
			return errs[0]
		},
		"POST /v1/observe": func() error {
			return httpErr("/v1/observe", map[string]any{"ticket": tk.ID, "runtime": 5})
		},
		"POST /v1/streams/j/observe": func() error {
			return httpErr("/v1/streams/j/observe", map[string]any{"ticket": tk.ID, "runtime": 5})
		},
		"POST /v1/streams/j/observe/batch": func() error {
			var resp observeBatchResponse
			body := map[string]any{"observations": []map[string]any{{"ticket": tk.ID, "runtime": 5}}}
			if code := doJSON(t, "POST", srv.URL+"/v1/streams/j/observe/batch", body, &resp); code != http.StatusOK || len(resp.Results) != 1 {
				t.Fatalf("batch observe: status %d, %+v", code, resp)
			}
			return errors.New(resp.Results[0].Error)
		},
	}
	want := core.ErrBadValue.Error()
	for round := 0; round < 2; round++ {
		for name, observe := range paths {
			if err := observe(); err == nil || err.Error() != want {
				t.Errorf("round %d, %s: %v, want the engine's refusal %q", round, name, err, want)
			}
			info, err := svc.StreamInfo("j")
			if err != nil {
				t.Fatal(err)
			}
			if info.Pending != 1 || info.Observed != 15 {
				t.Fatalf("round %d, %s: pending %d, observed %d; want the ticket still pending and nothing applied",
					round, name, info.Pending, info.Observed)
			}
		}
	}
}

// TestOutcomeTotalsOverflowRefused: the stream's outcome totals are
// snapshot state, so an observation that would overflow them is refused
// with core.ErrBadValue, and Save keeps working. A model-free policy
// accepts any finite runtime, so only the totals guard stands in the way.
func TestOutcomeTotalsOverflowRefused(t *testing.T) {
	svc := NewService(ServiceOptions{})
	if err := svc.CreateStream("r", StreamConfig{Hardware: testHW(), Dim: 1, Policy: PolicySpec{Type: PolicyRandom}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.ObserveDirectOutcome("r", 0, []float64{1}, Outcome{Runtime: 1e308}); err != nil {
		t.Fatal(err)
	}
	if err := svc.ObserveDirectOutcome("r", 1, []float64{1}, Outcome{Runtime: 1e308}); !errors.Is(err, core.ErrBadValue) {
		t.Fatalf("err = %v, want core.ErrBadValue", err)
	}
	info, err := svc.StreamInfo("r")
	if err != nil {
		t.Fatal(err)
	}
	if info.Observed != 1 {
		t.Fatalf("observed %d, want 1", info.Observed)
	}
	if err := svc.Save(io.Discard); err != nil {
		t.Fatalf("Save: %v", err)
	}
}

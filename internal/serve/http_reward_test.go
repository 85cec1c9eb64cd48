package serve

// HTTP coverage of the outcome/reward surface: reward specs on stream
// creation (bare string and object forms) and shadow attachment,
// structured {"outcome": ...} observe bodies on every observe route,
// and the error paths — malformed outcome JSON (400), semantically
// invalid outcomes (422, ticket not burned), and expired tickets
// redeemed with outcomes (410).

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHTTPCreateStreamWithReward(t *testing.T) {
	_, srv := newTestServer(t)
	// Object form.
	var info StreamInfo
	if code := doJSON(t, "POST", srv.URL+"/v1/streams", map[string]any{
		"name": "cost", "hardware_spec": "cheap=2x16;fast=16x64", "dim": 1, "seed": 1,
		"reward": map[string]any{"type": "cost_weighted", "lambda": 0.5},
	}, &info); code != http.StatusCreated {
		t.Fatalf("create with reward object: %d", code)
	}
	if info.Reward.Type != RewardCostWeighted || info.Reward.Lambda != 0.5 {
		t.Fatalf("created reward = %+v", info.Reward)
	}
	// Bare string form canonicalises with defaults.
	if code := doJSON(t, "POST", srv.URL+"/v1/streams", map[string]any{
		"name": "cost2", "hardware_spec": "cheap=2x16", "dim": 1,
		"reward": "cost_weighted",
	}, &info); code != http.StatusCreated {
		t.Fatalf("create with bare reward string: %d", code)
	}
	if info.Reward.Type != RewardCostWeighted || info.Reward.Lambda != 1 {
		t.Fatalf("bare-string reward = %+v", info.Reward)
	}
	// Unknown reward type -> 400 and no stream created.
	var errResp map[string]string
	if code := doJSON(t, "POST", srv.URL+"/v1/streams", map[string]any{
		"name": "bad", "hardware_spec": "cheap=2x16", "dim": 1,
		"reward": "fastest",
	}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("bad reward type: %d (%v)", code, errResp)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/streams/bad", nil, nil); code != http.StatusNotFound {
		t.Fatalf("half-created stream visible: %d", code)
	}
}

func TestHTTPObserveOutcome(t *testing.T) {
	svc, srv := newTestServer(t)
	createJobsStream(t, srv.URL)

	var tk Ticket
	doJSON(t, "POST", srv.URL+"/v1/streams/jobs/recommend", map[string]any{"features": []float64{4}}, &tk)
	if code := doJSON(t, "POST", srv.URL+"/v1/observe", map[string]any{
		"ticket": tk.ID,
		"outcome": map[string]any{
			"runtime": 61.5,
			"success": true,
			"metrics": map[string]float64{"memory_gb": 3.25, "cost_usd": 0.02},
		},
	}, nil); code != http.StatusOK {
		t.Fatalf("observe outcome: %d", code)
	}
	info, _ := svc.StreamInfo("jobs")
	if info.Observed != 1 || info.RuntimeTotal != 61.5 || info.RewardTotal != 61.5 {
		t.Fatalf("outcome not applied: %+v", info)
	}

	// The stream-scoped route and the direct form take outcomes too.
	doJSON(t, "POST", srv.URL+"/v1/streams/jobs/recommend", map[string]any{"features": []float64{4}}, &tk)
	if code := doJSON(t, "POST", srv.URL+"/v1/streams/jobs/observe", map[string]any{
		"ticket": tk.ID, "outcome": map[string]any{"runtime": 10},
	}, nil); code != http.StatusOK {
		t.Fatal("stream-scoped outcome observe failed")
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/streams/jobs/observe", map[string]any{
		"arm": 1, "features": []float64{4},
		"outcome": map[string]any{"runtime": 9, "success": false},
	}, nil); code != http.StatusOK {
		t.Fatal("direct outcome observe failed")
	}
	info, _ = svc.StreamInfo("jobs")
	if info.Failures != 1 {
		t.Fatalf("failure not counted: %+v", info)
	}

	// Batch observations mix scalar and outcome forms.
	var tks struct {
		Tickets []Ticket `json:"tickets"`
	}
	doJSON(t, "POST", srv.URL+"/v1/streams/jobs/recommend/batch", map[string]any{
		"batch": [][]float64{{1}, {2}},
	}, &tks)
	var batchResp observeBatchResponse
	doJSON(t, "POST", srv.URL+"/v1/streams/jobs/observe/batch", map[string]any{
		"observations": []map[string]any{
			{"ticket": tks.Tickets[0].ID, "runtime": 5},
			{"ticket": tks.Tickets[1].ID, "outcome": map[string]any{"runtime": 6, "metrics": map[string]float64{"energy_joules": 120}}},
		},
	}, &batchResp)
	if batchResp.Applied != 2 {
		t.Fatalf("batch outcome observe: %+v", batchResp)
	}
}

func TestHTTPObserveOutcomeErrorPaths(t *testing.T) {
	svc, srv := newTestServer(t)
	createJobsStream(t, srv.URL)
	var tk Ticket
	doJSON(t, "POST", srv.URL+"/v1/streams/jobs/recommend", map[string]any{"features": []float64{4}}, &tk)

	var errResp map[string]string
	// Malformed outcome JSON (unknown field) -> 400 from strict decode.
	if code := doJSON(t, "POST", srv.URL+"/v1/observe", map[string]any{
		"ticket": tk.ID, "outcome": map[string]any{"runtime": 5, "durations": 3},
	}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("unknown outcome field: %d (%v)", code, errResp)
	}
	// Unknown metric name -> 422.
	if code := doJSON(t, "POST", srv.URL+"/v1/observe", map[string]any{
		"ticket": tk.ID, "outcome": map[string]any{"runtime": 5, "metrics": map[string]float64{"memoryGB": 1}},
	}, &errResp); code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown metric: %d (%v)", code, errResp)
	}
	if !strings.Contains(errResp["error"], "unknown metric") {
		t.Fatalf("unknown metric error body: %v", errResp)
	}
	// Negative runtime -> 422, scalar and outcome forms alike.
	if code := doJSON(t, "POST", srv.URL+"/v1/observe", map[string]any{
		"ticket": tk.ID, "outcome": map[string]any{"runtime": -1},
	}, &errResp); code != http.StatusUnprocessableEntity {
		t.Fatalf("negative outcome runtime: %d", code)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/observe", map[string]any{
		"ticket": tk.ID, "runtime": -1,
	}, &errResp); code != http.StatusUnprocessableEntity {
		t.Fatalf("negative scalar runtime: %d", code)
	}
	// Giving both forms -> 422, same rule and sentinel on every route.
	if code := doJSON(t, "POST", srv.URL+"/v1/observe", map[string]any{
		"ticket": tk.ID, "runtime": 5, "outcome": map[string]any{"runtime": 5},
	}, &errResp); code != http.StatusUnprocessableEntity {
		t.Fatalf("both forms: %d", code)
	}
	// The batch route applies the same both-forms rule per index.
	var batchResp observeBatchResponse
	doJSON(t, "POST", srv.URL+"/v1/streams/jobs/observe/batch", map[string]any{
		"observations": []map[string]any{
			{"ticket": tk.ID, "runtime": 5, "outcome": map[string]any{"runtime": 5}},
		},
	}, &batchResp)
	if batchResp.Applied != 0 || batchResp.Results[0].OK ||
		!strings.Contains(batchResp.Results[0].Error, "not both") {
		t.Fatalf("batch both forms: %+v", batchResp)
	}
	// A direct observe with an out-of-range arm is a 400, not a dropped
	// connection.
	if code := doJSON(t, "POST", srv.URL+"/v1/streams/jobs/observe", map[string]any{
		"arm": 99, "features": []float64{1}, "runtime": 5,
	}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("out-of-range arm: %d (%v)", code, errResp)
	}
	// None of the rejections burned the ticket or touched the model.
	info, _ := svc.StreamInfo("jobs")
	if info.Observed != 0 || info.Pending != 1 {
		t.Fatalf("rejections changed state: %+v", info)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/observe", map[string]any{
		"ticket": tk.ID, "outcome": map[string]any{"runtime": 33},
	}, nil); code != http.StatusOK {
		t.Fatalf("ticket burned by rejected outcomes: %d", code)
	}
}

func TestHTTPExpiredTicketWithOutcome(t *testing.T) {
	clock := &fakeClock{t: time.Unix(2000, 0)}
	svc := NewService(ServiceOptions{Now: clock.now, TicketTTL: time.Minute})
	srv := newServerFor(t, svc)
	createJobsStream(t, srv.URL)
	var tk Ticket
	doJSON(t, "POST", srv.URL+"/v1/streams/jobs/recommend", map[string]any{"features": []float64{4}}, &tk)
	clock.advance(2 * time.Minute)
	var errResp map[string]string
	if code := doJSON(t, "POST", srv.URL+"/v1/observe", map[string]any{
		"ticket": tk.ID, "outcome": map[string]any{"runtime": 5, "success": true},
	}, &errResp); code != http.StatusGone {
		t.Fatalf("expired ticket with outcome: %d (%v)", code, errResp)
	}
}

func TestHTTPShadowWithReward(t *testing.T) {
	svc, srv := newTestServer(t)
	createJobsStream(t, srv.URL)
	var resp struct {
		Shadows []ShadowInfo `json:"shadows"`
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/streams/jobs/shadows", map[string]any{
		"name": "cost-view", "policy": "greedy",
		"reward": map[string]any{"type": "cost_weighted", "lambda": 2},
	}, &resp); code != http.StatusCreated {
		t.Fatalf("attach shadow with reward: %d", code)
	}
	if len(resp.Shadows) != 1 || resp.Shadows[0].Reward.Type != RewardCostWeighted {
		t.Fatalf("shadow reward missing: %+v", resp.Shadows)
	}
	var tk Ticket
	doJSON(t, "POST", srv.URL+"/v1/streams/jobs/recommend", map[string]any{"features": []float64{4}}, &tk)
	doJSON(t, "POST", srv.URL+"/v1/observe", map[string]any{"ticket": tk.ID, "runtime": 10}, nil)
	shadows := infoOf(t, svc, "jobs").Shadows
	if shadows[0].RewardTotal <= 10 {
		t.Fatalf("shadow reward total missing the cost surcharge: %+v", shadows[0])
	}
	// A bad shadow reward is refused.
	var errResp map[string]string
	if code := doJSON(t, "POST", srv.URL+"/v1/streams/jobs/shadows", map[string]any{
		"name": "bad", "policy": "greedy", "reward": "??",
	}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("bad shadow reward: %d", code)
	}
}

// newServerFor wraps an existing service in a test HTTP server.
func newServerFor(t *testing.T, svc *Service) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(srv.Close)
	return srv
}

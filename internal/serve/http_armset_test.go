package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"banditware/internal/hardware"
)

// armListing is the wire shape of every arm-lifecycle response.
type armListing struct {
	Stream string    `json:"stream"`
	Arm    int       `json:"arm"`
	Arms   []ArmInfo `json:"arms"`
}

// TestHTTPArmLifecycle walks one hardware rollout over the wire: list,
// add (201), drain, promote, retire, and the status-code mapping for
// every rejection class (404 unknown arm, 422 lifecycle/validation, 400
// non-integer index).
func TestHTTPArmLifecycle(t *testing.T) {
	_, srv := newTestServer(t)
	createJobsStream(t, srv.URL)
	base := srv.URL + "/v1/streams/jobs/arms"

	var list armListing
	if code := doJSON(t, "GET", base, nil, &list); code != http.StatusOK {
		t.Fatalf("list arms: status %d", code)
	}
	if len(list.Arms) != 3 || list.Arms[0].Status != "active" {
		t.Fatalf("initial listing: %+v", list.Arms)
	}

	// Add via the CLI string form, in the trial state.
	var added armListing
	if code := doJSON(t, "POST", base, map[string]any{
		"hardware_spec": "H3=8x64", "warm": "pooled", "trial": true,
	}, &added); code != http.StatusCreated {
		t.Fatalf("add arm: status %d (%+v)", code, added)
	}
	if added.Arm != 3 || len(added.Arms) != 4 || added.Arms[3].Status != "trial" {
		t.Fatalf("add response: %+v", added)
	}

	// Add via the structured form.
	if code := doJSON(t, "POST", base, map[string]any{
		"hardware": map[string]any{"name": "H4", "cpus": 6, "memory_gb": 48},
	}, &added); code != http.StatusCreated {
		t.Fatalf("structured add: status %d", code)
	}
	if added.Arm != 4 || added.Arms[4].Status != "active" {
		t.Fatalf("structured add response: %+v", added)
	}

	var out armListing
	if code := doJSON(t, "POST", base+"/3/promote", nil, &out); code != http.StatusOK {
		t.Fatalf("promote: status %d", code)
	}
	if out.Arms[3].Status != "active" {
		t.Fatalf("post-promote listing: %+v", out.Arms)
	}
	if code := doJSON(t, "POST", base+"/3/drain", nil, &out); code != http.StatusOK {
		t.Fatalf("drain: status %d", code)
	}
	if out.Arms[3].Status != "draining" {
		t.Fatalf("post-drain listing: %+v", out.Arms)
	}
	if code := doJSON(t, "DELETE", base+"/3", nil, &out); code != http.StatusOK {
		t.Fatalf("retire: status %d", code)
	}
	if len(out.Arms) != 4 || out.Arms[3].Hardware != "H4(6,48)" {
		t.Fatalf("post-retire listing: %+v", out.Arms)
	}

	// Rejections.
	var errResp map[string]any
	if code := doJSON(t, "POST", base+"/9/drain", nil, &errResp); code != http.StatusNotFound {
		t.Fatalf("drain unknown arm: status %d (%v)", code, errResp)
	}
	if code := doJSON(t, "DELETE", base+"/0", nil, &errResp); code != http.StatusUnprocessableEntity {
		t.Fatalf("retire active arm: status %d (%v)", code, errResp)
	}
	if code := doJSON(t, "POST", base+"/first/drain", nil, &errResp); code != http.StatusBadRequest {
		t.Fatalf("non-integer arm index: status %d (%v)", code, errResp)
	}
	if code := doJSON(t, "POST", base, map[string]any{
		"hardware_spec": "H9=8x64", "warm": "sideways",
	}, &errResp); code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown warm mode: status %d (%v)", code, errResp)
	}
	if code := doJSON(t, "POST", base, map[string]any{
		"hardware":      map[string]any{"name": "H9", "cpus": 6, "memory_gb": 48},
		"hardware_spec": "H9=6x48",
	}, &errResp); code != http.StatusUnprocessableEntity {
		t.Fatalf("both hardware forms: status %d (%v)", code, errResp)
	}
	if code := doJSON(t, "POST", base, map[string]any{}, &errResp); code != http.StatusUnprocessableEntity {
		t.Fatalf("neither hardware form: status %d (%v)", code, errResp)
	}
	if code := doJSON(t, "POST", base, map[string]any{
		"hardware_spec": "H0=2x16",
	}, &errResp); code != http.StatusUnprocessableEntity {
		t.Fatalf("duplicate hardware name: status %d (%v)", code, errResp)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/streams/ghost/arms", nil, &errResp); code != http.StatusNotFound {
		t.Fatalf("arms of unknown stream: status %d (%v)", code, errResp)
	}
}

// TestHTTPCreateRejectsCacheField: streams no longer take a
// recommendation cache, and a create that still names one is refused
// with 400 by the strict body decode rather than silently served
// without it.
func TestHTTPCreateRejectsCacheField(t *testing.T) {
	_, srv := newTestServer(t)
	var errResp map[string]any
	if code := doJSON(t, "POST", srv.URL+"/v1/streams", map[string]any{
		"name": "jobs", "hardware_spec": "H0=2x16;H1=3x24", "dim": 1, "seed": 1,
		"cache": map[string]any{"capacity": 32, "budget": 0.5, "bits": 12},
	}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("create with cache: status %d (%v), want 400", code, errResp)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/streams/jobs", nil, &errResp); code != http.StatusNotFound {
		t.Fatalf("rejected create registered the stream: status %d", code)
	}
}

// TestHTTPStreamInfoCarriesArmState: arm states flow through the
// stream-info and stats endpoints.
func TestHTTPStreamInfoCarriesArmState(t *testing.T) {
	svc, srv := newTestServer(t)
	var info StreamInfo
	if code := doJSON(t, "POST", srv.URL+"/v1/streams", map[string]any{
		"name": "jobs", "hardware_spec": "H0=2x16;H1=3x24", "dim": 1, "seed": 1,
	}, &info); code != http.StatusCreated {
		t.Fatalf("create stream: status %d", code)
	}
	if err := svc.DrainArm("jobs", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tk, err := svc.Recommend("jobs", []float64{2})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Observe(tk.ID, 30); err != nil {
			t.Fatal(err)
		}
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/streams/jobs", nil, &info); code != http.StatusOK {
		t.Fatalf("stream info: status %d", code)
	}
	if len(info.ArmStates) != 2 || info.ArmStates[0] != "draining" {
		t.Fatalf("arm states over the wire: %v", info.ArmStates)
	}
	var stats Stats
	if code := doJSON(t, "GET", srv.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if len(stats.Streams) != 1 || len(stats.Streams[0].ArmStates) != 2 || stats.Streams[0].ArmStates[0] != "draining" {
		t.Fatalf("arm states in stats: %+v", stats.Streams)
	}
}

// TestHTTPCreateRejectsForgettingFactor: a stream's memory is set by
// "adapt" alone. The raw "forgetting_factor" option used to make a
// stream forget while it reported mode "none" and was skipped by
// replication; a create naming it is now refused with 400 by the strict
// body decode.
func TestHTTPCreateRejectsForgettingFactor(t *testing.T) {
	_, srv := newTestServer(t)
	var errResp map[string]any
	if code := doJSON(t, "POST", srv.URL+"/v1/streams", map[string]any{
		"name": "jobs", "hardware_spec": "H0=2x16;H1=3x24", "dim": 1, "seed": 1,
		"forgetting_factor": 0.9,
	}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("create with forgetting_factor: status %d (%v), want 400", code, errResp)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/streams/jobs", nil, &errResp); code != http.StatusNotFound {
		t.Fatalf("rejected create registered the stream: status %d", code)
	}
}

// TestInspectStreamDuringArmChurn: GET /v1/streams/{name} reads the
// summary and every arm's model under one hold of the stream lock, so
// arms added and retired concurrently never split the two. Every GET
// answers 200 with one model per listed arm; reading them under
// separate locks raced with AddArm and answered 400 when a retire
// landed between the summary and a model read.
func TestInspectStreamDuringArmChurn(t *testing.T) {
	svc := newTestService(t, ServiceOptions{}, "s")
	h := NewHandler(svc)
	stop := make(chan struct{})
	churned := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				churned <- nil
				return
			default:
			}
			arm, err := svc.AddArm("s", ArmAdd{Hardware: hardware.Config{Name: "H9", CPUs: 8, MemoryGB: 64}, Trial: true})
			if err == nil {
				err = svc.RetireArm("s", arm)
			}
			if err != nil {
				churned <- err
				return
			}
		}
	}()
	defer func() {
		close(stop)
		if err := <-churned; err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 3000; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/streams/s", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %d: status %d body %s", i, rec.Code, rec.Body)
		}
		var got struct {
			StreamInfo
			Models []modelDTO `json:"models"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Models) != len(got.Hardware) {
			t.Fatalf("GET %d: %d models for hardware %v", i, len(got.Models), got.Hardware)
		}
	}
}

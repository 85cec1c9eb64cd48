package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"banditware"
)

// createExample is the checked-in create document the docs show: a
// schema, a LinUCB policy, a cost_weighted reward, forgetting and one
// shadow.
const createExample = "testdata/create_bp3d.json"

// createFrom writes doc to a file and creates its stream on a fresh
// service the way `serve -create` does.
func createFrom(t *testing.T, doc string) (*banditware.Service, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := banditware.NewService(banditware.ServiceOptions{})
	return svc, createFromFile(svc, path)
}

// TestServeCreateFile: `serve -create` reads a POST /v1/streams body,
// and the same bytes give the same stream through either door.
func TestServeCreateFile(t *testing.T) {
	doc, err := os.ReadFile(createExample)
	if err != nil {
		t.Fatal(err)
	}
	fromFile := banditware.NewService(banditware.ServiceOptions{})
	if err := createFromFile(fromFile, createExample); err != nil {
		t.Fatalf("create from %s: %v", createExample, err)
	}
	fromHTTP := banditware.NewService(banditware.ServiceOptions{})
	rec := httptest.NewRecorder()
	banditware.ServiceHandler(fromHTTP).ServeHTTP(rec,
		httptest.NewRequest(http.MethodPost, "/v1/streams", bytes.NewReader(doc)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST /v1/streams: %d %s", rec.Code, rec.Body)
	}
	a, err := fromFile.StreamInfo("bp3d")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fromHTTP.StreamInfo("bp3d")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("file and HTTP creates differ:\n%+v\n%+v", a, b)
	}
	if a.Policy != banditware.PolicyLinUCB || a.Reward.Type != banditware.RewardCostWeighted ||
		a.Adapt.Mode != banditware.AdaptForgetting || len(a.Shadows) != 1 {
		t.Fatalf("example stream = %+v", a)
	}

	// A name the service already holds, a missing file, a malformed
	// document and an unknown field are all refused.
	if err := createFromFile(fromFile, createExample); !errors.Is(err, banditware.ErrStreamExists) {
		t.Fatalf("second create: %v, want ErrStreamExists", err)
	}
	if err := createFromFile(fromFile, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	for _, bad := range []string{
		`{"name": "j", "hardware_spec": "H0=2x16"`,
		`{"name": "j", "hardware_spec": "H0=2x16", "colour": "blue"}`,
		`{"name": "j"}`,
		`{"name": "j", "hardware_spec": "notahardware"}`,
	} {
		if _, err := createFrom(t, bad); err == nil {
			t.Errorf("create accepted %s", bad)
		}
	}
}

// TestCreateFileSchema: a create document with a schema and no dim
// derives the stream's dimension from the schema, and the stream serves
// named contexts; an invalid schema is refused with the schema sentinel.
func TestCreateFileSchema(t *testing.T) {
	svc, err := createFrom(t, `{
	  "name": "typed", "hardware_spec": "H0=2x16;H1=3x24",
	  "schema": {"fields": [
	    {"name": "num_tasks", "required": true, "min": 0},
	    {"name": "site", "kind": "categorical", "categories": ["expanse", "nautilus"]}
	  ]}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.StreamInfo("typed")
	if err != nil {
		t.Fatal(err)
	}
	if info.Dim != 3 { // 1 numeric + 2 one-hot
		t.Fatalf("derived dim = %d, want 3", info.Dim)
	}
	tk, err := svc.RecommendCtx("typed", banditware.Context{
		Numeric:     map[string]float64{"num_tasks": 12},
		Categorical: map[string]string{"site": "expanse"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Observe(tk.ID, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := createFrom(t, `{"name": "typed", "hardware_spec": "H0=2x16", "schema": {"fields": []}}`); !errors.Is(err, banditware.ErrInvalidSchema) {
		t.Fatalf("empty schema: %v, want ErrInvalidSchema", err)
	}
}

// TestCreateFileReward: the document's reward parameterises the stream,
// and an unknown reward type is refused with its sentinel.
func TestCreateFileReward(t *testing.T) {
	svc, err := createFrom(t, `{"name": "jobs", "hardware_spec": "H0=2x16;H1=16x64", "dim": 1,
	  "reward": {"type": "failure_penalty", "penalty": 200}}`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.StreamInfo("jobs")
	if rw := info.Reward; err != nil || rw.Type != banditware.RewardFailurePenalty || rw.Penalty != 200 {
		t.Fatalf("reward = %+v, %v", rw, err)
	}
	if _, err := createFrom(t, `{"name": "jobs", "hardware_spec": "H0=2x16", "dim": 1, "reward": "??"}`); !errors.Is(err, banditware.ErrBadReward) {
		t.Fatalf("unknown reward: %v, want ErrBadReward", err)
	}
}

// TestCreateFilePolicy: the document's policy reaches the stream, and
// an unknown policy type is refused with its sentinel.
func TestCreateFilePolicy(t *testing.T) {
	svc, err := createFrom(t, `{"name": "ucb", "hardware_spec": "H0=2x16;H1=3x24", "dim": 1, "seed": 3,
	  "policy": {"type": "lints", "posterior_scale": 0.5}}`)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := svc.StreamInfo("ucb"); err != nil || info.Policy != banditware.PolicyLinTS {
		t.Fatalf("policy = %q, %v", info.Policy, err)
	}
	if _, err := createFrom(t, `{"name": "q", "hardware_spec": "H0=2x16", "dim": 1, "policy": "quantum"}`); !errors.Is(err, banditware.ErrUnknownPolicy) {
		t.Fatalf("unknown policy: %v, want ErrUnknownPolicy", err)
	}
}

// TestCreateFileAdapt: the document's adaptation reaches the stream, and
// an unknown mode is refused with its sentinel.
func TestCreateFileAdapt(t *testing.T) {
	svc, err := createFrom(t, `{"name": "jobs", "hardware_spec": "H0=2x16;H1=3x24", "dim": 1,
	  "adapt": {"mode": "window", "window": 128, "on_drift": "reset", "drift_threshold": 20}}`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.StreamInfo("jobs")
	if adapt := info.Adapt; err != nil || adapt.Mode != banditware.AdaptWindow || adapt.Window != 128 ||
		adapt.OnDrift != banditware.DriftReset || adapt.DriftThreshold != 20 {
		t.Fatalf("created stream adapt = %+v, %v", info.Adapt, err)
	}
	if _, err := createFrom(t, `{"name": "jobs", "hardware_spec": "H0=2x16", "dim": 1, "adapt": "sideways"}`); !errors.Is(err, banditware.ErrBadAdapt) {
		t.Fatalf("unknown adaptation: %v, want ErrBadAdapt", err)
	}
}

// TestServeServerHardened pins the serve subcommand's http.Server
// configuration: every slow-client avenue must be bounded, not just
// the header-read timeout.
func TestServeServerHardened(t *testing.T) {
	svc := banditware.NewService(banditware.ServiceOptions{})
	srv := banditware.NewServiceServer(svc)
	if srv.Handler == nil {
		t.Fatal("server has no handler")
	}
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unbounded")
	}
	if srv.ReadTimeout <= 0 {
		t.Error("ReadTimeout unbounded")
	}
	if srv.WriteTimeout <= 0 {
		t.Error("WriteTimeout unbounded")
	}
	if srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout unbounded")
	}
	if srv.MaxHeaderBytes <= 0 {
		t.Error("MaxHeaderBytes unbounded")
	}
}

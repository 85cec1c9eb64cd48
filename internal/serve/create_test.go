package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"banditware/internal/hardware"
)

// TestCreateStreamShadowsAtomic: CreateStream attaches every listed
// shadow, in order, before the stream is registered; a shadow that
// fails to attach fails the create and leaves no stream behind.
func TestCreateStreamShadowsAtomic(t *testing.T) {
	svc := NewService(ServiceOptions{})
	cost := RewardSpec{Type: RewardCostWeighted, Lambda: 0.5}
	if err := svc.CreateStream("jobs", StreamConfig{
		Hardware: testHW(), Dim: 1, Policy: PolicySpec{Type: PolicyLinUCB},
		Shadows: []ShadowConfig{
			{Name: "paper", Policy: PolicySpec{Type: PolicyAlgorithm1, Seed: 4}},
			{Name: "cheap", Policy: PolicySpec{Type: PolicyGreedy}, Reward: &cost},
		},
	}); err != nil {
		t.Fatal(err)
	}
	shadows := infoOf(t, svc, "jobs").Shadows
	if len(shadows) != 2 || shadows[0].Name != "paper" || shadows[1].Name != "cheap" ||
		shadows[0].Reward.Type != RewardRuntime || shadows[1].Reward.Type != RewardCostWeighted {
		t.Fatalf("shadows = %+v", shadows)
	}
	for _, c := range []struct {
		shadows []ShadowConfig
		want    error
	}{
		{[]ShadowConfig{{Name: "a"}, {Name: "a"}}, ErrShadowExists},
		{[]ShadowConfig{{Name: "a"}, {Name: "bad name"}}, ErrBadStreamName},
		{[]ShadowConfig{{Name: "a"}, {Name: "b", Policy: PolicySpec{Type: "quantum"}}}, ErrUnknownPolicy},
		{[]ShadowConfig{{Name: "a", Reward: &RewardSpec{Type: "??"}}}, ErrBadReward},
	} {
		err := svc.CreateStream("half", StreamConfig{Hardware: testHW(), Dim: 1, Shadows: c.shadows})
		if !errors.Is(err, c.want) {
			t.Errorf("create with shadows %+v: %v, want %v", c.shadows, err, c.want)
		}
		if _, err := svc.StreamInfo("half"); !errors.Is(err, ErrStreamNotFound) {
			t.Fatalf("a failed shadow left the stream registered: %v", err)
		}
	}
}

// wideHW returns n distinct arms.
func wideHW(n int) hardware.Set {
	hw := make(hardware.Set, n)
	for i := range hw {
		hw[i] = hardware.Config{Name: fmt.Sprintf("H%d", i), CPUs: i + 1, MemoryGB: float64(4 * (i + 1))}
	}
	return hw
}

// TestCreateShadowsPastModelStateBound: each shadow is another engine of
// the stream's shape, so three arms at dimension 1024 fit the bound
// alone but not with one shadow. The create answers 400 naming the
// bound, builds none of that shape, and registers nothing.
func TestCreateShadowsPastModelStateBound(t *testing.T) {
	svc := NewService(ServiceOptions{})
	body, err := json.Marshal(map[string]any{
		"name": "wide", "hardware_spec": "H0=2x16;H1=3x24;H2=4x16", "dim": maxDim, "policy": PolicyGreedy,
		"shadows": []map[string]any{{"name": "s0", "policy": PolicyGreedy}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	NewHandler(svc).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "model-state bound") {
		t.Fatalf("create: status %d body %s, want 400 naming the model-state bound", rec.Code, rec.Body)
	}
	if n := svc.NumStreams(); n != 0 {
		t.Errorf("rejected create registered %d streams", n)
	}
	// The same shape without the shadow fits.
	if err := svc.CreateStream("wide", StreamConfig{Hardware: testHW(), Dim: maxDim, Policy: PolicySpec{Type: PolicyGreedy}}); err != nil {
		t.Fatalf("three arms at maxDim without shadows must fit the bound: %v", err)
	}
}

// TestAttachShadowPastModelStateBound: attaching a shadow to a stream
// whose engine already fills more than half the bound is refused (400
// over HTTP) and attaches nothing.
func TestAttachShadowPastModelStateBound(t *testing.T) {
	svc := NewService(ServiceOptions{})
	if err := svc.CreateStream("wide", StreamConfig{Hardware: testHW(), Dim: maxDim, Policy: PolicySpec{Type: PolicyGreedy}}); err != nil {
		t.Fatal(err)
	}
	err := svc.AttachShadow("wide", ShadowConfig{Name: "s0", Policy: PolicySpec{Type: PolicyGreedy}})
	if err == nil || !strings.Contains(err.Error(), "model-state bound") {
		t.Fatalf("AttachShadow past the bound: %v, want an error naming the model-state bound", err)
	}
	rec := httptest.NewRecorder()
	NewHandler(svc).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams/wide/shadows",
		strings.NewReader(`{"name":"s1","policy":"random"}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("HTTP attach past the bound: status %d body %s, want 400", rec.Code, rec.Body)
	}
	if shadows := infoOf(t, svc, "wide").Shadows; len(shadows) != 0 {
		t.Fatalf("refused attaches left shadows: %+v", shadows)
	}
}

// TestAddArmPastModelStateBoundWithShadow: AddArm grows every shadow
// too, so eight arms at dimension 511 with one shadow fill the bound
// exactly and a ninth arm is refused with ErrBadArmRequest (422 over
// HTTP), leaving the stream unchanged.
func TestAddArmPastModelStateBoundWithShadow(t *testing.T) {
	const dim = 511
	svc := NewService(ServiceOptions{})
	if err := svc.CreateStream("wide", StreamConfig{
		Hardware: wideHW(8), Dim: dim, Policy: PolicySpec{Type: PolicyGreedy},
		Shadows: []ShadowConfig{{Name: "s0", Policy: PolicySpec{Type: PolicyGreedy}}},
	}); err != nil {
		t.Fatalf("8 arms × 2 engines at dim %d must fit the bound: %v", dim, err)
	}
	infoBefore, err := svc.StreamInfo("wide")
	if err != nil {
		t.Fatal(err)
	}
	armsBefore, err := svc.Arms("wide")
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.AddArm("wide", ArmAdd{Hardware: hardware.Config{Name: "H8", CPUs: 64, MemoryGB: 256}})
	if !errors.Is(err, ErrBadArmRequest) || !strings.Contains(err.Error(), "model-state bound") {
		t.Fatalf("AddArm past the bound: %v, want ErrBadArmRequest naming the model-state bound", err)
	}
	rec := httptest.NewRecorder()
	NewHandler(svc).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams/wide/arms",
		strings.NewReader(`{"hardware_spec":"H8=64x256"}`)))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("HTTP add past the bound: status %d body %s, want 422", rec.Code, rec.Body)
	}
	infoAfter, err := svc.StreamInfo("wide")
	if err != nil {
		t.Fatal(err)
	}
	armsAfter, err := svc.Arms("wide")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(infoBefore, infoAfter) || !reflect.DeepEqual(armsBefore, armsAfter) {
		t.Fatalf("rejected add changed the stream:\n%+v %+v\n%+v %+v", infoBefore, armsBefore, infoAfter, armsAfter)
	}
}

// TestParseCreateRequestMapping: the create document's conveniences map
// onto the StreamConfig: the stream seed reaches a policy and shadows
// that set none, an explicit epsilon0 of 0 means pure exploitation, and
// ticket_ttl_seconds is a duration.
func TestParseCreateRequestMapping(t *testing.T) {
	name, cfg, err := ParseCreateRequest(strings.NewReader(`{
	  "name": "jobs", "hardware": [{"name": "g", "cpus": 8, "memory_gb": 32, "gpus": 1}],
	  "dim": 2, "seed": 9, "epsilon0": 0, "ticket_ttl_seconds": 1.5, "max_pending": 7,
	  "policy": "linucb",
	  "shadows": [{"name": "a", "policy": "softmax"}, {"name": "b", "policy": {"type": "lints", "seed": 2}}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if name != "jobs" || cfg.Dim != 2 || cfg.Hardware[0].GPUs != 1 || cfg.Options.Seed != 9 ||
		!cfg.Options.ZeroEpsilon || cfg.TicketTTL.Seconds() != 1.5 || cfg.MaxPending != 7 {
		t.Fatalf("ParseCreateRequest = %q, %+v", name, cfg)
	}
	if cfg.Policy.Type != PolicyLinUCB || cfg.Policy.Seed != 9 ||
		cfg.Shadows[0].Policy.Seed != 9 || cfg.Shadows[1].Policy.Seed != 2 {
		t.Fatalf("seeds: policy %+v, shadows %+v", cfg.Policy, cfg.Shadows)
	}
	for _, bad := range []string{
		`{"name": "j", "hardware_spec": "H0=2x16", "hardware": [{"cpus": 2, "memory_gb": 16}]}`,
		`{"name": "j", "dim": 1}`,
		`{"name": "j", "hardware_spec": "H0=2x16", "dim": 1, "colour": "blue"}`,
		`{"name": "j", "hardware_spec": "H0=2x16", "dim": 1, "shadows": [{"name": "a", "weight": 1}]}`,
		`not json`,
	} {
		if _, _, err := ParseCreateRequest(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseCreateRequest accepted %s", bad)
		}
	}
}

// outOfRangeLedgerBodies are create documents whose ledger overrides
// are negative or past a Duration: each used to create its stream with
// the service defaults instead.
var outOfRangeLedgerBodies = []string{
	`{"name":"ttl-huge","hardware_spec":"H0=2x16","dim":1,"ticket_ttl_seconds":1e12}`,
	`{"name":"ttl-neg","hardware_spec":"H0=2x16","dim":1,"ticket_ttl_seconds":-5}`,
	`{"name":"cap-neg","hardware_spec":"H0=2x16","dim":1,"max_pending":-3}`,
}

// TestCreateRefusesOutOfRangeLedgerFields: a negative or unrepresentable
// ticket_ttl_seconds and a negative max_pending get 400 and register
// nothing, as do negative StreamConfig overrides; zero still inherits
// the service defaults, and a positive override is kept as given.
func TestCreateRefusesOutOfRangeLedgerFields(t *testing.T) {
	svc := NewService(ServiceOptions{TicketTTL: time.Minute, MaxPending: 9})
	h := NewHandler(svc)
	for _, body := range outOfRangeLedgerBodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("create %s: status %d, want 400 (%s)", body, rec.Code, rec.Body)
		}
	}
	for _, cfg := range []StreamConfig{
		{Hardware: testHW(), Dim: 1, MaxPending: -1},
		{Hardware: testHW(), Dim: 1, TicketTTL: -time.Second},
	} {
		if err := svc.CreateStream("neg", cfg); err == nil {
			t.Errorf("CreateStream accepted MaxPending %d, TicketTTL %v", cfg.MaxPending, cfg.TicketTTL)
		}
	}
	if n := svc.NumStreams(); n != 0 {
		t.Fatalf("refused creates registered %d streams", n)
	}
	for _, c := range []struct {
		body string
		cap  int
		ttl  time.Duration
	}{
		{`{"name":"inherit","hardware_spec":"H0=2x16","dim":1,"ticket_ttl_seconds":0,"max_pending":0}`, 9, time.Minute},
		{`{"name":"own","hardware_spec":"H0=2x16","dim":1,"ticket_ttl_seconds":2.5,"max_pending":3}`, 3, 2500 * time.Millisecond},
	} {
		name, cfg, err := ParseCreateRequest(strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.CreateStream(name, cfg); err != nil {
			t.Fatal(err)
		}
		st, err := svc.stream(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.ledger.cap != c.cap || st.ledger.ttl != c.ttl {
			t.Errorf("%s: ledger capacity %d, TTL %v; want %d, %v", name, st.ledger.cap, st.ledger.ttl, c.cap, c.ttl)
		}
	}
}

// createSeeds are create documents from the HTTP tests: every policy,
// reward and adaptation form, schemas, shadows, and refused bodies.
var createSeeds = []string{
	`{"name":"jobs","hardware_spec":"H0=2x16;H1=3x24","dim":1,"seed":1}`,
	`{"name":"ucb","hardware_spec":"H0=2x16;H1=3x24;H2=4x16","dim":1,"policy":"linucb","shadows":[{"name":"paper","policy":{"type":"algorithm1","seed":4}}]}`,
	`{"name":"half","hardware_spec":"H0=2x16","dim":1,"shadows":[{"name":"x","policy":"quantum"}]}`,
	`{"name":"cost","hardware_spec":"cheap=2x16;fast=16x64","dim":1,"seed":1,"reward":{"type":"cost_weighted","lambda":0.5}}`,
	`{"name":"slo","hardware_spec":"cheap=2x16","dim":1,"reward":{"type":"deadline","deadline_seconds":300,"penalty":5},"shadows":[{"name":"c","policy":"greedy","reward":"cost_weighted"}]}`,
	`{"name":"obj","hardware_spec":"H0=2x16;H1=3x24","dim":1,"adapt":{"mode":"window","window":32,"on_drift":"reset"}}`,
	`{"name":"jobs","hardware_spec":"H0=2x16;H1=3x24","dim":1,"seed":1,"epsilon0":0,"adapt":{"drift_delta":0.5,"drift_threshold":20,"drift_min_samples":3,"drift_warmup":5}}`,
	`{"name":"rnd","hardware_spec":"H0=2x16;H1=3x24","dim":1,"policy":"random","adapt":"forgetting"}`,
	`{"name":"m","hardware":[{"name":"small","cpus":2,"memory_gb":16},{"name":"large","cpus":16,"memory_gb":64,"gpus":1}],"dim":1,"policy":{"type":"softmax","temperature":0.5},"max_pending":8,"ticket_ttl_seconds":30}`,
	`{"name":"typed","hardware_spec":"H0=2x16;H1=3x24;H2=4x16","seed":7,"schema":{"fields":[{"name":"area","required":true,"min":0,"normalize":"minmax"},{"name":"fuel","kind":"categorical","categories":["grass","timber"]}]}}`,
	`{"name":"jobs","hardware_spec":"H0=2x16;H1=3x24","dim":1,"seed":1,"forgetting_factor":0.9}`,
	`{"name":"jobs","hardware_spec":"H0=2x16","hardware":[{"cpus":2,"memory_gb":16}],"dim":1}`,
}

// FuzzParseCreateRequest drives the create document (the body of POST
// /v1/streams, and the file `banditware serve -create` reads) through
// ParseCreateRequest and CreateStream. Invariants: nothing panics; a
// refused create registers nothing; an accepted stream answers
// StreamInfo and Save, and the saved snapshot loads back to the same
// StreamInfo.
func FuzzParseCreateRequest(f *testing.F) {
	for _, seed := range createSeeds {
		f.Add([]byte(seed))
	}
	example, err := os.ReadFile("../../cmd/banditware/testdata/create_bp3d.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	for _, seed := range outOfRangeLedgerBodies {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		name, cfg, err := ParseCreateRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		// The bound itself is pinned by the model-state tests; near it one
		// execution builds and serialises tens of MiB, so the target keeps
		// to shapes 64 times smaller.
		dim := cfg.Dim
		if cfg.Schema != nil {
			dim = cfg.Schema.EncodedDim()
		}
		if dim >= 0 && dim <= maxDim && checkStreamShape(64*len(cfg.Hardware), len(cfg.Shadows), dim) != nil {
			return
		}
		svc := NewService(ServiceOptions{})
		if err := svc.CreateStream(name, cfg); err != nil {
			if n := svc.NumStreams(); n != 0 {
				t.Fatalf("refused create (%v) registered %d streams", err, n)
			}
			return
		}
		info, err := svc.StreamInfo(name)
		if err != nil {
			t.Fatalf("StreamInfo of an accepted stream: %v", err)
		}
		if st, _ := svc.stream(name); (cfg.MaxPending != 0 && st.ledger.cap != cfg.MaxPending) ||
			(cfg.TicketTTL != 0 && st.ledger.ttl != cfg.TicketTTL) {
			t.Fatalf("ledger override max_pending %d, TTL %v became %d, %v",
				cfg.MaxPending, cfg.TicketTTL, st.ledger.cap, st.ledger.ttl)
		}
		var snap bytes.Buffer
		if err := svc.Save(&snap); err != nil {
			t.Fatalf("Save of an accepted stream: %v", err)
		}
		back, err := Load(bytes.NewReader(snap.Bytes()), ServiceOptions{})
		if err != nil {
			t.Fatalf("Load of a saved accepted stream: %v\n%s", err, snap.Bytes())
		}
		again, err := back.StreamInfo(name)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(info)
		b, _ := json.Marshal(again)
		if !bytes.Equal(a, b) {
			t.Fatalf("StreamInfo changed through Save and Load:\n%s\n%s", a, b)
		}
	})
}

package banditware

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"banditware/internal/rng"
)

func serviceHW(t *testing.T) HardwareSet {
	t.Helper()
	hw, err := ParseHardwareSet("H0=2x16;H1=3x24;H2=4x16")
	if err != nil {
		t.Fatal(err)
	}
	return hw
}

// TestServicePublicRoundTrip drives the full public serving flow: two
// streams, ticket recommend/observe, batch ops, stats, snapshot.
func TestServicePublicRoundTrip(t *testing.T) {
	hw := serviceHW(t)
	svc := NewService(ServiceOptions{})
	for name, seed := range map[string]uint64{"bp3d": 1, "matmul": 2} {
		if err := svc.CreateStream(name, StreamConfig{Hardware: hw, Dim: 1, Options: Options{Seed: seed}}); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.New(5)
	slopes := []float64{5, 3, 1}
	for i := 0; i < 100; i++ {
		for _, name := range []string{"bp3d", "matmul"} {
			x := r.Uniform(10, 100)
			tk, err := svc.Recommend(name, []float64{x})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Observe(tk.ID, slopes[tk.Arm]*x+20); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := svc.Stats()
	if stats.TotalObserved != 200 || stats.TotalPending != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// Both streams learned the cheapest-slope arm.
	for _, name := range []string{"bp3d", "matmul"} {
		arm, err := svc.Exploit(name, []float64{80})
		if err != nil {
			t.Fatal(err)
		}
		if arm != 2 {
			t.Fatalf("stream %s exploits arm %d, want 2", name, arm)
		}
	}
	// Batch path, served by the HTTP front-end.
	h := ServiceHandler(svc)
	post := func(path, body string, out any) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatal(err)
		}
	}
	var batch struct {
		Tickets []Ticket `json:"tickets"`
	}
	post("/v1/streams/bp3d/recommend/batch", `{"batch":[[10],[20]]}`, &batch)
	if len(batch.Tickets) != 2 {
		t.Fatalf("batch: %d tickets", len(batch.Tickets))
	}
	var observed struct {
		Applied int `json:"applied"`
	}
	post("/v1/streams/bp3d/observe/batch", fmt.Sprintf(`{"observations":[{"ticket":%q,"runtime":70},{"ticket":%q,"runtime":120}]}`,
		batch.Tickets[0].ID, batch.Tickets[1].ID), &observed)
	if observed.Applied != 2 {
		t.Fatalf("observe batch: applied %d", observed.Applied)
	}
	// Snapshot round trip preserves model state.
	var buf bytes.Buffer
	if err := svc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadService(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bp3d", "matmul"} {
		want, _ := svc.PredictAll(name, []float64{42})
		got, err := back.PredictAll(name, []float64{42})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-12 {
				t.Fatalf("stream %s predictions drifted across snapshot", name)
			}
		}
	}
}

// TestServiceLoadsLegacyRecommenderState: a state file written by the
// original single-recommender Save loads as a one-stream service.
func TestServiceLoadsLegacyRecommenderState(t *testing.T) {
	rec, err := New(serviceHW(t), 1, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 25; i++ {
		x := []float64{float64(i)}
		d, err := rec.Recommend(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Observe(d.Arm, x, 3*x[0]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	svc, err := LoadService(&buf)
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.StreamInfo("default")
	if err != nil {
		t.Fatal(err)
	}
	if info.Round != 25 {
		t.Fatalf("round = %d, want 25", info.Round)
	}
}

// TestServiceConcurrentStreams hammers several public-API streams from
// many goroutines at once (run with -race).
func TestServiceConcurrentStreams(t *testing.T) {
	hw := serviceHW(t)
	svc := NewService(ServiceOptions{})
	streams := []string{"a", "b", "c", "d"}
	for i, name := range streams {
		if err := svc.CreateStream(name, StreamConfig{Hardware: hw, Dim: 1, Options: Options{Seed: uint64(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, iters = 16, 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := streams[g%len(streams)]
			for i := 0; i < iters; i++ {
				x := []float64{float64(i%40 + 1)}
				tk, err := svc.Recommend(name, x)
				if err != nil {
					t.Error(err)
					return
				}
				if err := svc.Observe(tk.ID, 2*x[0]+float64(tk.Arm)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	stats := svc.Stats()
	if stats.TotalObserved != goroutines*iters {
		t.Fatalf("observed %d, want %d", stats.TotalObserved, goroutines*iters)
	}
	for _, info := range stats.Streams {
		if info.Round != (goroutines/len(streams))*iters {
			t.Fatalf("stream %s round = %d", info.Name, info.Round)
		}
	}
}

// TestServicePolicyStreams: the public API creates policy-typed streams
// and shadows, and the policy/shadow errors are re-exported.
func TestServicePolicyStreams(t *testing.T) {
	hw := serviceHW(t)
	svc := NewService(ServiceOptions{})
	if err := svc.CreateStream("ucb", StreamConfig{
		Hardware: hw, Dim: 1, Policy: PolicySpec{Type: PolicyLinUCB, Beta: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := svc.AttachShadow("ucb", ShadowConfig{Name: "paper", Policy: PolicySpec{Type: PolicyAlgorithm1, Seed: 2}}); err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	slopes := []float64{5, 3, 1}
	for i := 0; i < 120; i++ {
		x := r.Uniform(10, 100)
		tk, err := svc.Recommend("ucb", []float64{x})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Observe(tk.ID, slopes[tk.Arm]*x+20); err != nil {
			t.Fatal(err)
		}
	}
	if arm, err := svc.Exploit("ucb", []float64{80}); err != nil || arm != 2 {
		t.Fatalf("exploit = %d, %v", arm, err)
	}
	info, err := svc.StreamInfo("ucb")
	if err != nil {
		t.Fatal(err)
	}
	if info.Policy != PolicyLinUCB || len(info.Shadows) != 1 || info.Shadows[0].Observations != 120 {
		t.Fatalf("info = %+v", info)
	}
	// Snapshot round trip keeps the policy stream and its shadow.
	var buf bytes.Buffer
	if err := svc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadService(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := back.StreamInfo("ucb"); err != nil || len(info.Shadows) != 1 || info.Shadows[0].Observations != 120 {
		t.Fatalf("restored shadows = %+v, %v", info.Shadows, err)
	}
	// Re-exported sentinels.
	if err := svc.CreateStream("bad", StreamConfig{Hardware: hw, Dim: 1, Policy: PolicySpec{Type: "nope"}}); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("unknown policy: %v", err)
	}
	if _, err := svc.PredictWithCI("ucb", []float64{1}, 0); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("CI on linucb: %v", err)
	}
	if err := svc.DetachShadow("ucb", "ghost"); !errors.Is(err, ErrShadowNotFound) {
		t.Fatalf("detach ghost: %v", err)
	}
	if err := svc.AttachShadow("ucb", ShadowConfig{Name: "paper", Policy: PolicySpec{}}); !errors.Is(err, ErrShadowExists) {
		t.Fatalf("duplicate shadow: %v", err)
	}
}

// TestServiceErrorsExported: the re-exported sentinels match what the
// service returns.
func TestServiceErrorsExported(t *testing.T) {
	svc := NewService(ServiceOptions{})
	if _, err := svc.Recommend("ghost", []float64{1}); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := svc.Observe("bad ticket", 1); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("err = %v", err)
	}
	if err := svc.CreateStream("x/y", StreamConfig{Hardware: serviceHW(t), Dim: 1}); !errors.Is(err, ErrBadStreamName) {
		t.Fatalf("err = %v", err)
	}
	stream, seq, err := ParseTicketID("jobs#2a")
	if err != nil || stream != "jobs" || seq != 42 {
		t.Fatalf("ParseTicketID = %q, %d, %v", stream, seq, err)
	}
}

// TestServiceSchemaPublicSurface drives the exported schema flow end to
// end: declare a schema (numeric + categorical), serve named contexts,
// reject malformed ones via ErrSchemaViolation, and round-trip the
// schema — with live normalization state — through the public snapshot
// API.
func TestServiceSchemaPublicSurface(t *testing.T) {
	sch, err := ParseSchema([]byte(`{
	  "fields": [
	    {"name": "num_tasks", "required": true, "min": 0, "normalize": "minmax"},
	    {"name": "site", "kind": "categorical", "categories": ["expanse", "nautilus"]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(ServiceOptions{})
	if err := svc.CreateStream("typed", StreamConfig{
		Hardware: serviceHW(t), Schema: sch, Options: Options{Seed: 9},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tk, err := svc.RecommendCtx("typed", Context{
			Numeric:     map[string]float64{"num_tasks": float64(10 + i*13%90)},
			Categorical: map[string]string{"site": []string{"expanse", "nautilus"}[i%2]},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Observe(tk.ID, float64(25+i%6*8)); err != nil {
			t.Fatal(err)
		}
	}
	// Malformed context: sentinel plus enumerable per-field errors.
	_, err = svc.RecommendCtx("typed", NumericContext(map[string]float64{"num_tasks": -3, "ghost": 1}))
	if !errors.Is(err, ErrSchemaViolation) {
		t.Fatalf("err = %v, want ErrSchemaViolation", err)
	}
	var v *ValidationError
	if !errors.As(err, &v) || len(v.Fields()) != 2 {
		t.Fatalf("validation error = %v", err)
	}
	// Snapshot round trip keeps the schema and its running stats.
	var buf bytes.Buffer
	if err := svc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadService(&buf)
	if err != nil {
		t.Fatal(err)
	}
	info, err := back.StreamInfo("typed")
	if err != nil {
		t.Fatal(err)
	}
	if restored := info.Schema; restored == nil || restored.Fields[0].Stats == nil || restored.Fields[0].Stats.Count != 20 {
		t.Fatalf("restored schema = %+v", restored)
	}
	if _, err := back.RecommendCtx("typed", Context{
		Numeric:     map[string]float64{"num_tasks": 42},
		Categorical: map[string]string{"site": "nautilus"},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestServiceArmLifecycleFacade drives the runtime arm-lifecycle API
// through the public facade: add (warm pooled), drain, promote, retire,
// the exported sentinels, and a snapshot round trip of the churned set.
func TestServiceArmLifecycleFacade(t *testing.T) {
	svc := NewService(ServiceOptions{})
	if err := svc.CreateStream("jobs", StreamConfig{
		Hardware: serviceHW(t), Dim: 1, Options: Options{Seed: 3},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		x := float64(i%10 + 1)
		tk, err := svc.Recommend("jobs", []float64{x})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Observe(tk.ID, 5*x+20); err != nil {
			t.Fatal(err)
		}
	}
	cfg, err := ParseHardware("H3=8x64")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := svc.AddArm("jobs", ArmAdd{Hardware: cfg, Warm: "pooled", Trial: true})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 3 {
		t.Fatalf("new arm index %d, want 3", idx)
	}
	arms, err := svc.Arms("jobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(arms) != 4 || arms[3].Status != "trial" {
		t.Fatalf("arms after add: %+v", arms)
	}
	// Exported sentinels map the rejection classes.
	if _, err := svc.AddArm("jobs", ArmAdd{Hardware: cfg}); !errors.Is(err, ErrBadArmRequest) {
		t.Fatalf("duplicate add err = %v, want ErrBadArmRequest", err)
	}
	if err := svc.DrainArm("jobs", 9); !errors.Is(err, ErrArmNotFound) {
		t.Fatalf("drain unknown arm err = %v, want ErrArmNotFound", err)
	}
	if err := svc.RetireArm("jobs", 0); !errors.Is(err, ErrArmLifecycle) {
		t.Fatalf("retire active arm err = %v, want ErrArmLifecycle", err)
	}
	if err := svc.PromoteArm("jobs", 3); err != nil {
		t.Fatal(err)
	}
	if err := svc.DrainArm("jobs", 3); err != nil {
		t.Fatal(err)
	}
	// The lifecycle state survives a snapshot round trip.
	var buf bytes.Buffer
	if err := svc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadService(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.RetireArm("jobs", 3); err != nil {
		t.Fatal(err)
	}
	arms, err = back.Arms("jobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(arms) != 3 {
		t.Fatalf("arms after restored retire: %+v", arms)
	}
	info, err := back.StreamInfo("jobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Hardware) != 3 || info.ArmStates != nil {
		t.Fatalf("restored stream after retire: hardware %v, arm states %v", info.Hardware, info.ArmStates)
	}
}

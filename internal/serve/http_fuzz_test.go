package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"banditware/internal/core"
	"banditware/internal/schema"
)

// fuzzRoutes are the recommend and observe routes FuzzHTTPRecommendObserve
// drives: the single and batch recommend routes on a schema'd and a raw
// stream, and the top-level, stream-scoped and batch observe routes.
var fuzzRoutes = []struct {
	path      string
	recommend bool
}{
	{"/v1/streams/typed/recommend", true},
	{"/v1/streams/jobs/recommend", true},
	{"/v1/streams/typed/recommend/batch", true},
	{"/v1/streams/jobs/recommend/batch", true},
	{"/v1/observe", false},
	{"/v1/streams/typed/observe", false},
	{"/v1/streams/jobs/observe", false},
	{"/v1/streams/typed/observe/batch", false},
	{"/v1/streams/jobs/observe/batch", false},
}

// newFuzzService builds the fuzz target's service: "typed" declares a
// schema with bounds, a default, min-max and z-score normalization and
// a categorical field; "jobs" is a raw dimension-1 stream. Every arm of
// both has two observations, so every prediction interval starts
// finite, and each stream has pending tickets (typed#0, typed#1,
// jobs#0, jobs#1) for observes to redeem.
func newFuzzService(tb testing.TB) *Service {
	tb.Helper()
	sch := testSchemaFields()
	sch.Fields = append(sch.Fields, schema.Field{Name: "cpu_usage", Normalize: schema.NormZScore})
	svc := NewService(ServiceOptions{})
	if err := svc.CreateStream("typed", StreamConfig{
		Hardware: testHW(), Schema: sch, Options: core.Options{Seed: 3},
	}); err != nil {
		tb.Fatal(err)
	}
	if err := svc.CreateStream("jobs", StreamConfig{
		Hardware: testHW(), Dim: 1, Options: core.Options{Seed: 1},
	}); err != nil {
		tb.Fatal(err)
	}
	ctx := schema.Context{
		Numeric:     map[string]float64{"num_tasks": 40, "input_mb": 300, "cpu_usage": 2},
		Categorical: map[string]string{"site": "expanse"},
	}
	for arm := range testHW() {
		for i := 1; i <= 2; i++ {
			train := schema.Context{Numeric: map[string]float64{"num_tasks": float64(30 * i), "cpu_usage": float64(i)}}
			if err := svc.observeDirect("typed", arm, nil, &train, Outcome{Runtime: float64(40*i + 10*arm)}); err != nil {
				tb.Fatal(err)
			}
			if err := svc.ObserveDirectOutcome("jobs", arm, []float64{float64(2 * i)}, Outcome{Runtime: float64(20*i + 5*arm)}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := svc.RecommendCtx("typed", ctx); err != nil {
			tb.Fatal(err)
		}
		if _, err := svc.Recommend("jobs", []float64{float64(i + 1)}); err != nil {
			tb.Fatal(err)
		}
	}
	return svc
}

// FuzzHTTPRecommendObserve drives the HTTP recommend and observe routes
// with arbitrary bodies. Invariants: nothing panics and nothing answers
// 5xx; every 4xx carries a JSON "error"; a rejected recommend leaves
// the schema's normalization statistics byte-identical; and every arm's
// PredictAll and PredictWithCI stay finite on both streams.
func FuzzHTTPRecommendObserve(f *testing.F) {
	seeds := []struct {
		route uint8
		body  string
	}{
		{0, `{"context":{"num_tasks":40,"input_mb":512,"cpu_usage":3,"site":"nautilus"}}`},
		{0, `{"context":{"num_tasks":5}}`},
		{0, `{"context":{"num_tasks":-1}}`},
		{0, `{"context":{"weight":1}}`},
		{0, `{"context":{"num_tasks":5},"features":[1,2,3,4,5,6]}`},
		{0, `{"context":{"num_tasks":[1]}}`},
		{0, `{"context":{"num_tasks":5,"site":"mars"}}`},
		{0, `{"features":[1,0,1,0,0,2]}`},
		{1, `{"features":[42]}`},
		{1, `{"features":[1,2]}`},
		{1, `{"context":{"x0":7}}`},
		{1, `{}`},
		{1, `{"features":[42],"bogus":1}`},
		{2, `{"contexts":[{"num_tasks":1,"site":"local"},{"num_tasks":2,"input_mb":50}]}`},
		{2, `{"contexts":[{"num_tasks":1},{"num_tasks":20000}]}`},
		{2, `{"contexts":[{"num_tasks":1}],"batch":[[1]]}`},
		{3, `{"batch":[[1],[2],[3]]}`},
		{3, `{"batch":[[1],[2,3]]}`},
		{4, `{"ticket":"jobs#0","runtime":150}`},
		{4, `{"ticket":"typed#1","outcome":{"runtime":5,"success":false,"metrics":{"cost_usd":0.1}}}`},
		{4, `{"ticket":"jobs#1","runtime":-5}`},
		{4, `{"ticket":"jobs#1","runtime":5,"outcome":{"runtime":5}}`},
		{4, `{"ticket":"jobs#FF","runtime":5}`},
		{4, `{"ticket":"ghost#1","runtime":5}`},
		{4, `{"ticket":"no-separator","runtime":5}`},
		{5, `{"ticket":"typed#0","runtime":61.5}`},
		{5, `{"arm":1,"context":{"num_tasks":80,"site":"local"},"runtime":25}`},
		{5, `{"arm":0,"context":{"num_tasks":-1},"runtime":10}`},
		{5, `{"arm":99,"context":{"num_tasks":10,"input_mb":1e6},"runtime":5}`},
		{6, `{"arm":1,"features":[3],"runtime":12}`},
		{6, `{"ticket":"typed#0","runtime":5}`},
		{6, `{"ticket":"jobs#0","outcome":{"runtime":5,"metrics":{"memoryGB":1}}}`},
		{6, `{"runtime":5}`},
		{7, `{"observations":[{"ticket":"typed#0","runtime":5},{"ticket":"jobs#0","runtime":5}]}`},
		{8, `{"observations":[{"ticket":"jobs#0","runtime":5},{"ticket":"jobs#1","outcome":{"runtime":-1}},{"ticket":"jobs#ffff","runtime":5}]}`},
		{8, `{"observations":null}`},
		{8, `not json`},
		{6, `{"arm":1,"features":[1e300],"runtime":1e300}`},
		{6, `{"arm":1,"features":[1e200],"runtime":5}`},
		{5, `{"arm":1,"context":{"num_tasks":5,"cpu_usage":1e300},"runtime":5}`},
		{5, `{"arm":1,"context":{"num_tasks":5,"input_mb":-1e308},"runtime":5}`},
		{4, `{"ticket":"jobs#0","runtime":1e308}`},
	}
	for _, s := range seeds {
		f.Add(s.route, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		svc := newFuzzService(t)
		h := NewHandler(svc)
		rt := fuzzRoutes[int(route)%len(fuzzRoutes)]
		statsBefore := typedSchemaJSON(t, svc)

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rt.path, bytes.NewReader(body)))

		if rec.Code >= 500 {
			t.Fatalf("%s: status %d: %s", rt.path, rec.Code, rec.Body)
		}
		if rec.Code >= 400 {
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%s: status %d without a JSON error: %q", rt.path, rec.Code, rec.Body)
			}
			if rt.recommend {
				if after := typedSchemaJSON(t, svc); !bytes.Equal(after, statsBefore) {
					t.Fatalf("%s: rejected recommend moved the schema:\n%s\n%s", rt.path, statsBefore, after)
				}
			}
		}
		for name, x := range map[string][]float64{"typed": make([]float64, 6), "jobs": {1}} {
			preds, err := svc.PredictAll(name, x)
			if err != nil {
				t.Fatalf("PredictAll(%s): %v", name, err)
			}
			for arm, p := range preds {
				if math.IsNaN(p) || math.IsInf(p, 0) {
					t.Fatalf("%s after %s %q: arm %d predicts %v", name, rt.path, body, arm, p)
				}
			}
			ivs, err := svc.PredictWithCI(name, x, 0)
			if err != nil {
				t.Fatalf("PredictWithCI(%s): %v", name, err)
			}
			for arm, iv := range ivs {
				for _, v := range []float64{iv.Lo, iv.Mid, iv.Hi} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%s after %s %q: arm %d interval %+v", name, rt.path, body, arm, iv)
					}
				}
			}
		}
	})
}

// typedSchemaJSON renders the typed stream's schema, normalization
// statistics included.
func typedSchemaJSON(t *testing.T, svc *Service) []byte {
	t.Helper()
	sch := infoOf(t, svc, "typed").Schema
	data, err := json.Marshal(sch)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

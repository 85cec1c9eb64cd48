package serve

import (
	"net/http"
	"reflect"
	"testing"

	"banditware/internal/schema"
)

// schemaCreateBody is the wire form of the acceptance-scenario stream:
// no dim — it derives from the schema (1 + 1 + 3 = 5).
var schemaCreateBody = map[string]any{
	"name":          "typed",
	"hardware_spec": "H0=2x16;H1=3x24;H2=4x16",
	"seed":          7,
	"schema": map[string]any{
		"fields": []map[string]any{
			{"name": "num_tasks", "required": true, "min": 0, "max": 10000},
			{"name": "input_mb", "normalize": "minmax", "default": 100},
			{"name": "site", "kind": "categorical", "categories": []string{"expanse", "nautilus", "local"}},
		},
	},
}

func createTypedStream(t *testing.T, base string) StreamInfo {
	t.Helper()
	var info StreamInfo
	if code := doJSON(t, "POST", base+"/v1/streams", schemaCreateBody, &info); code != http.StatusCreated {
		t.Fatalf("create schema stream: status %d", code)
	}
	return info
}

func TestHTTPSchemaStreamLifecycle(t *testing.T) {
	_, srv := newTestServer(t)
	info := createTypedStream(t, srv.URL)
	if info.Dim != 5 {
		t.Fatalf("derived dim = %d, want 5", info.Dim)
	}
	if info.Schema == nil || len(info.Schema.Fields) != 3 || info.Schema.Fields[2].Kind != schema.KindCategorical {
		t.Fatalf("create response schema = %+v", info.Schema)
	}

	// Named context recommend → observe round trip.
	var tk Ticket
	if code := doJSON(t, "POST", srv.URL+"/v1/streams/typed/recommend",
		map[string]any{"context": map[string]any{
			"num_tasks": 200, "input_mb": 512, "site": "nautilus",
		}}, &tk); code != http.StatusOK {
		t.Fatalf("context recommend: %d", code)
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/observe",
		map[string]any{"ticket": tk.ID, "runtime": 61.5}, nil); code != http.StatusOK {
		t.Fatal("observe failed")
	}
	// Direct context observe.
	if code := doJSON(t, "POST", srv.URL+"/v1/streams/typed/observe",
		map[string]any{"arm": 1, "context": map[string]any{"num_tasks": 80, "site": "local"}, "runtime": 25}, nil); code != http.StatusOK {
		t.Fatal("direct context observe failed")
	}
	// Context batch.
	var batch struct {
		Tickets []Ticket `json:"tickets"`
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/streams/typed/recommend/batch",
		map[string]any{"contexts": []map[string]any{
			{"num_tasks": 10}, {"num_tasks": 20, "site": "expanse"},
		}}, &batch); code != http.StatusOK || len(batch.Tickets) != 2 {
		t.Fatalf("context batch: %d (%d tickets)", code, len(batch.Tickets))
	}
	// Inspect surfaces the schema with its live normalization state.
	var inspect struct {
		StreamInfo
		Models []modelDTO `json:"models"`
	}
	doJSON(t, "GET", srv.URL+"/v1/streams/typed", nil, &inspect)
	if inspect.Schema == nil || inspect.Schema.Fields[1].Stats == nil {
		t.Fatalf("inspect schema = %+v", inspect.Schema)
	}
}

// TestHTTPSchemaViolationIs422: malformed contexts return 422 with the
// per-field error list, on the single, direct-observe, and batch routes.
func TestHTTPSchemaViolation422(t *testing.T) {
	_, srv := newTestServer(t)
	createTypedStream(t, srv.URL)

	type fieldErr struct {
		Field string `json:"field"`
		Error string `json:"error"`
	}
	var errResp struct {
		Error  string     `json:"error"`
		Fields []fieldErr `json:"fields"`
	}
	code := doJSON(t, "POST", srv.URL+"/v1/streams/typed/recommend",
		map[string]any{"context": map[string]any{
			"input_mb": -3.5, "site": "mars", "bogus": 1,
		}}, &errResp)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("malformed context: %d, want 422", code)
	}
	// Deterministic field order: declared fields first, then unknown.
	want := []fieldErr{
		{Field: "num_tasks", Error: "required field missing"},
		{Field: "site", Error: `unknown category "mars" (known: expanse, nautilus, local)`},
		{Field: "bogus", Error: "unknown field"},
	}
	if len(errResp.Fields) != len(want) {
		t.Fatalf("fields = %+v", errResp.Fields)
	}
	for i := range want {
		if errResp.Fields[i] != want[i] {
			t.Fatalf("field %d = %+v, want %+v", i, errResp.Fields[i], want[i])
		}
	}

	// Batch: one bad context rejects atomically with its index, still 422.
	errResp.Fields = nil
	code = doJSON(t, "POST", srv.URL+"/v1/streams/typed/recommend/batch",
		map[string]any{"contexts": []map[string]any{
			{"num_tasks": 5}, {"num_tasks": 5, "site": "venus"},
		}}, &errResp)
	if code != http.StatusUnprocessableEntity || len(errResp.Fields) != 1 || errResp.Fields[0].Field != "site" {
		t.Fatalf("batch violation: %d %+v", code, errResp)
	}

	// Direct observe with a bad context: 422, nothing learned.
	errResp.Fields = nil
	code = doJSON(t, "POST", srv.URL+"/v1/streams/typed/observe",
		map[string]any{"arm": 0, "context": map[string]any{"num_tasks": -1}, "runtime": 10}, &errResp)
	if code != http.StatusUnprocessableEntity || len(errResp.Fields) != 1 {
		t.Fatalf("observe violation: %d %+v", code, errResp)
	}

	// Raw-dimension streams 422 through the identity schema too.
	createJobsStream(t, srv.URL)
	code = doJSON(t, "POST", srv.URL+"/v1/streams/jobs/recommend",
		map[string]any{"context": map[string]any{"weight": 1}}, &errResp)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("identity-schema violation: %d", code)
	}

	// Giving both forms at once is a plain 400.
	var plain map[string]string
	code = doJSON(t, "POST", srv.URL+"/v1/streams/typed/recommend",
		map[string]any{"context": map[string]any{"num_tasks": 5}, "features": []float64{1, 2, 3, 4, 5}}, &plain)
	if code != http.StatusBadRequest {
		t.Fatalf("both forms: %d", code)
	}
	// A context with a non-scalar value fails JSON decoding → 400.
	code = doJSON(t, "POST", srv.URL+"/v1/streams/typed/recommend",
		map[string]any{"context": map[string]any{"num_tasks": []int{1}}}, &plain)
	if code != http.StatusBadRequest {
		t.Fatalf("non-scalar context value: %d", code)
	}
}

// TestHTTPObserveDirectCtxBadArmKeepsSchema is the wire twin of
// TestObserveDirectCtxBadArmKeepsSchema: POST /v1/streams/{name}/observe
// with an out-of-range arm and a context fails without advancing the
// stream's normalization statistics.
func TestHTTPObserveDirectCtxBadArmKeepsSchema(t *testing.T) {
	svc, srv := newTestServer(t)
	createTypedStream(t, srv.URL)
	before := infoOf(t, svc, "typed").Schema
	code := doJSON(t, "POST", srv.URL+"/v1/streams/typed/observe",
		map[string]any{"arm": 99, "context": map[string]any{"num_tasks": 10, "input_mb": 1e6}, "runtime": 5}, nil)
	if code < 400 || code >= 500 {
		t.Fatalf("bad-arm observe: status %d, want 4xx", code)
	}
	after := infoOf(t, svc, "typed").Schema
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("rejected observe changed the schema: %+v -> %+v",
			before.Fields[1].Stats, after.Fields[1].Stats)
	}
}

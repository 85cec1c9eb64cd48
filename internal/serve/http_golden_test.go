package serve

// Body-level golden for the batch and direct-observe routes: one fixed
// request script run against a fresh handler on a fixed clock, with each
// response's status and exact body bytes checked in under
// testdata/http/batch_direct.golden. Ticket IDs, predictions, issue
// times and the models the script trains are all deterministic, so any
// change to a status, an error message, a field or a side effect of
// these routes fails here.
//
// Regenerate with:
//
//	UPDATE_HTTP_GOLDEN=1 go test -run TestHTTPBatchDirectGolden ./internal/serve/
//
// and review the diff — a changed body is a wire-format change.

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

const httpGoldenFile = "testdata/http/batch_direct.golden"

// httpGoldenScript is the request script: {name, method, path, body}.
// The streams are "jobs" (raw, dim 1, seed 1) and "typed" (the schema
// stream of schemaCreateBody); "ghost" is never created.
var httpGoldenScript = [][4]string{
	{"create jobs", "POST", "/v1/streams", `{"name":"jobs","hardware_spec":"H0=2x16;H1=3x24;H2=4x16","dim":1,"seed":1}`},
	{"create typed", "POST", "/v1/streams", `{"name":"typed","hardware_spec":"H0=2x16;H1=3x24;H2=4x16","seed":7,"schema":{"fields":[` +
		`{"name":"num_tasks","required":true,"min":0,"max":10000},` +
		`{"name":"input_mb","normalize":"minmax","default":100},` +
		`{"name":"site","kind":"categorical","categories":["expanse","nautilus","local"]}]}}`},

	// recommend/batch
	{"batch raw", "POST", "/v1/streams/jobs/recommend/batch", `{"batch":[[1],[2],[3]]}`},
	{"batch contexts", "POST", "/v1/streams/typed/recommend/batch", `{"contexts":[{"num_tasks":10},{"num_tasks":20,"site":"expanse","input_mb":300}]}`},
	{"batch contexts on identity schema", "POST", "/v1/streams/jobs/recommend/batch", `{"contexts":[{"x0":4}]}`},
	{"batch both forms", "POST", "/v1/streams/jobs/recommend/batch", `{"batch":[[1]],"contexts":[{"x0":1}]}`},
	{"batch dimension error", "POST", "/v1/streams/jobs/recommend/batch", `{"batch":[[1],[2,9],[3]]}`},
	{"batch schema violation", "POST", "/v1/streams/typed/recommend/batch", `{"contexts":[{"num_tasks":10},{"num_tasks":5,"site":"mars"}]}`},
	{"batch unknown stream", "POST", "/v1/streams/ghost/recommend/batch", `{"batch":[[1]]}`},
	{"batch empty", "POST", "/v1/streams/jobs/recommend/batch", `{}`},
	{"batch malformed body", "POST", "/v1/streams/jobs/recommend/batch", `{"batch":[[1]],"extra":1}`},
	{"state after recommend batches", "GET", "/v1/streams/jobs", ``},

	// observe/batch
	{"observe batch mixed", "POST", "/v1/streams/jobs/observe/batch", `{"observations":[` +
		`{"ticket":"jobs#0","runtime":10},` +
		`{"ticket":"jobs#1","runtime":-5},` +
		`{"ticket":"garbage","runtime":1},` +
		`{"ticket":"typed#0","runtime":4},` +
		`{"ticket":"ghost#1","runtime":1},` +
		`{"ticket":"jobs#1","outcome":{"runtime":20,"success":true}},` +
		`{"ticket":"jobs#0","runtime":10},` +
		`{"ticket":"jobs#2","runtime":5,"outcome":{"runtime":5}},` +
		`{"ticket":"jobs#ff","runtime":3},` +
		`{"ticket":"typed#0","runtime":-1},` +
		`{"ticket":"jobs#2","outcome":{"runtime":7,"metrics":{"memoryGB":1}}}]}`},
	{"observe batch route stream missing", "POST", "/v1/streams/ghost/observe/batch", `{"observations":[` +
		`{"ticket":"ghost#1","runtime":1},` +
		`{"ticket":"ghost#2","runtime":-1},` +
		`{"ticket":"jobs#2","runtime":1},` +
		`{"ticket":"nope","runtime":1}]}`},
	{"observe batch empty", "POST", "/v1/streams/jobs/observe/batch", `{"observations":[]}`},
	{"observe batch absent", "POST", "/v1/streams/jobs/observe/batch", `{}`},
	{"observe batch other stream", "POST", "/v1/streams/typed/observe/batch", `{"observations":[` +
		`{"ticket":"typed#1","runtime":30},{"ticket":"jobs#2","runtime":30}]}`},
	{"state after observe batches", "GET", "/v1/streams/jobs", ``},

	// /observe direct
	{"direct raw", "POST", "/v1/streams/jobs/observe", `{"arm":1,"features":[3],"runtime":12}`},
	{"direct raw outcome", "POST", "/v1/streams/jobs/observe", `{"arm":0,"features":[2],"outcome":{"runtime":9,"success":false}}`},
	{"direct context", "POST", "/v1/streams/typed/observe", `{"arm":2,"context":{"num_tasks":80,"site":"local"},"runtime":25}`},
	{"direct both forms", "POST", "/v1/streams/jobs/observe", `{"arm":0,"features":[1],"context":{"x0":1},"runtime":3}`},
	{"direct raw dimension error", "POST", "/v1/streams/jobs/observe", `{"arm":0,"features":[1,2],"runtime":3}`},
	{"direct raw bad arm", "POST", "/v1/streams/jobs/observe", `{"arm":7,"features":[1],"runtime":3}`},
	{"direct context bad arm", "POST", "/v1/streams/typed/observe", `{"arm":-1,"context":{"num_tasks":8},"runtime":3}`},
	{"direct context bad arm and schema", "POST", "/v1/streams/typed/observe", `{"arm":3,"context":{"site":"mars"},"runtime":3}`},
	{"direct no form", "POST", "/v1/streams/jobs/observe", `{"runtime":3}`},
	{"direct on top-level route", "POST", "/v1/observe", `{"arm":0,"features":[1],"runtime":3}`},
	{"direct raw bad outcome", "POST", "/v1/streams/jobs/observe", `{"arm":0,"features":[1],"runtime":-3}`},
	{"direct context bad outcome", "POST", "/v1/streams/typed/observe", `{"arm":0,"context":{"num_tasks":8},"outcome":{"runtime":3,"metrics":{"bogus":1}}}`},
	{"direct context schema violation", "POST", "/v1/streams/typed/observe", `{"arm":0,"context":{"num_tasks":-4,"site":"mars"},"runtime":3}`},
	{"direct raw unknown stream", "POST", "/v1/streams/ghost/observe", `{"arm":0,"features":[1],"runtime":3}`},
	{"direct context unknown stream", "POST", "/v1/streams/ghost/observe", `{"arm":0,"context":{"x0":1},"runtime":3}`},
	{"final jobs", "GET", "/v1/streams/jobs", ``},
	{"final typed", "GET", "/v1/streams/typed", ``},
}

// runHTTPGoldenScript plays the script and renders every exchange.
func runHTTPGoldenScript(t *testing.T) []byte {
	t.Helper()
	clock := &fakeClock{t: time.Unix(9000, 0).UTC()}
	h := NewHandler(NewService(ServiceOptions{Now: clock.now}))
	var out bytes.Buffer
	for _, step := range httpGoldenScript {
		name, method, path, body := step[0], step[1], step[2], step[3]
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fmt.Fprintf(&out, "### %s\n%s %s %s\n--> %d\n%s\n", name, method, path, body, rec.Code, rec.Body.Bytes())
		clock.advance(time.Second)
	}
	return out.Bytes()
}

func TestHTTPBatchDirectGolden(t *testing.T) {
	got := runHTTPGoldenScript(t)
	if os.Getenv("UPDATE_HTTP_GOLDEN") != "" {
		if err := os.MkdirAll("testdata/http", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(httpGoldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(httpGoldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_HTTP_GOLDEN=1)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotSteps, wantSteps := strings.Split(string(got), "### "), strings.Split(string(want), "### ")
	for i := 0; i < len(gotSteps) && i < len(wantSteps); i++ {
		if gotSteps[i] != wantSteps[i] {
			t.Fatalf("first differing exchange:\n--- want\n%s--- got\n%s", wantSteps[i], gotSteps[i])
		}
	}
	t.Fatalf("script length changed: %d exchanges, golden has %d", len(gotSteps)-1, len(wantSteps)-1)
}

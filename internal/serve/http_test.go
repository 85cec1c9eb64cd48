package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"banditware/internal/core"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := NewService(ServiceOptions{})
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(srv.Close)
	return svc, srv
}

// doJSON posts (or GETs when body is nil) and decodes the response.
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func createJobsStream(t *testing.T, base string) {
	t.Helper()
	var info StreamInfo
	code := doJSON(t, "POST", base+"/v1/streams", map[string]any{
		"name": "jobs", "hardware_spec": "H0=2x16;H1=3x24;H2=4x16", "dim": 1, "seed": 1,
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("create stream: status %d", code)
	}
	if info.Name != "jobs" || len(info.Hardware) != 3 {
		t.Fatalf("create response: %+v", info)
	}
}

func TestHTTPStreamLifecycle(t *testing.T) {
	_, srv := newTestServer(t)
	createJobsStream(t, srv.URL)

	// Duplicate -> 409.
	var errResp map[string]string
	if code := doJSON(t, "POST", srv.URL+"/v1/streams", map[string]any{
		"name": "jobs", "hardware_spec": "H0=2x16", "dim": 1,
	}, &errResp); code != http.StatusConflict {
		t.Fatalf("duplicate create: %d (%v)", code, errResp)
	}
	// Structured hardware form + explicit epsilon0 = 0.
	if code := doJSON(t, "POST", srv.URL+"/v1/streams", map[string]any{
		"name": "greedy",
		"hardware": []map[string]any{
			{"name": "A", "cpus": 2, "memory_gb": 16},
			{"name": "B", "cpus": 4, "memory_gb": 32},
		},
		"dim": 1, "epsilon0": 0,
	}, nil); code != http.StatusCreated {
		t.Fatalf("structured create: %d", code)
	}
	// Pure exploitation from round 0: never explores.
	var tk Ticket
	doJSON(t, "POST", srv.URL+"/v1/streams/greedy/recommend", map[string]any{"features": []float64{5}}, &tk)
	if tk.Explored || tk.Epsilon != 0 {
		t.Fatalf("epsilon0=0 stream explored: %+v", tk)
	}
	// List + inspect + delete.
	var infos []StreamInfo
	doJSON(t, "GET", srv.URL+"/v1/streams", nil, &infos)
	if len(infos) != 2 {
		t.Fatalf("listed %d streams", len(infos))
	}
	var inspect struct {
		StreamInfo
		Models []modelDTO `json:"models"`
	}
	doJSON(t, "GET", srv.URL+"/v1/streams/jobs", nil, &inspect)
	if inspect.Name != "jobs" || len(inspect.Models) != 3 {
		t.Fatalf("inspect: %+v", inspect)
	}
	if code := doJSON(t, "DELETE", srv.URL+"/v1/streams/greedy", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/v1/streams/greedy", nil, &errResp); code != http.StatusNotFound {
		t.Fatalf("inspect deleted: %d", code)
	}
}

func TestHTTPRecommendObserveRoundTrip(t *testing.T) {
	svc, srv := newTestServer(t)
	createJobsStream(t, srv.URL)

	var tk Ticket
	if code := doJSON(t, "POST", srv.URL+"/v1/streams/jobs/recommend",
		map[string]any{"features": []float64{10}}, &tk); code != http.StatusOK {
		t.Fatalf("recommend: %d", code)
	}
	// Stream-scoped observe with the ticket.
	if code := doJSON(t, "POST", srv.URL+"/v1/streams/jobs/observe",
		map[string]any{"ticket": tk.ID, "runtime": 55.5}, nil); code != http.StatusOK {
		t.Fatal("observe failed")
	}
	// Double observe -> 404; wrong-stream observe -> 400; expired -> tested in serve_test.
	var errResp map[string]string
	if code := doJSON(t, "POST", srv.URL+"/v1/observe",
		map[string]any{"ticket": tk.ID, "runtime": 55.5}, &errResp); code != http.StatusNotFound {
		t.Fatalf("double observe: %d", code)
	}
	doJSON(t, "POST", srv.URL+"/v1/streams/jobs/recommend", map[string]any{"features": []float64{10}}, &tk)
	if code := doJSON(t, "POST", srv.URL+"/v1/streams/other/observe",
		map[string]any{"ticket": tk.ID, "runtime": 1}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("cross-stream observe: %d (%v)", code, errResp)
	}
	// Top-level observe routes by ticket ID.
	if code := doJSON(t, "POST", srv.URL+"/v1/observe",
		map[string]any{"ticket": tk.ID, "runtime": 60}, nil); code != http.StatusOK {
		t.Fatal("top-level observe failed")
	}
	// Direct arm+features observe (arm 0 expressible).
	arm := 0
	if code := doJSON(t, "POST", srv.URL+"/v1/streams/jobs/observe",
		map[string]any{"arm": arm, "features": []float64{10}, "runtime": 33}, nil); code != http.StatusOK {
		t.Fatal("direct observe failed")
	}
	if n := infoOf(t, svc, "jobs").Round; n != 3 {
		t.Fatalf("round = %d, want 3", n)
	}
	// Unknown stream recommend -> 404.
	if code := doJSON(t, "POST", srv.URL+"/v1/streams/nope/recommend",
		map[string]any{"features": []float64{1}}, &errResp); code != http.StatusNotFound {
		t.Fatalf("unknown stream: %d", code)
	}
	// Malformed body -> 400.
	resp, err := http.Post(srv.URL+"/v1/streams/jobs/recommend", "application/json",
		bytes.NewReader([]byte(`{"featurez": [1]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", resp.StatusCode)
	}
}

func TestHTTPBatchEndpoints(t *testing.T) {
	_, srv := newTestServer(t)
	createJobsStream(t, srv.URL)

	var batch struct {
		Tickets []Ticket `json:"tickets"`
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/streams/jobs/recommend/batch",
		map[string]any{"batch": [][]float64{{1}, {2}, {3}}}, &batch); code != http.StatusOK {
		t.Fatalf("recommend batch failed")
	}
	if len(batch.Tickets) != 3 {
		t.Fatalf("got %d tickets", len(batch.Tickets))
	}
	obs := []map[string]any{
		{"ticket": batch.Tickets[0].ID, "runtime": 10.0},
		{"ticket": "jobs#ff", "runtime": 5.0}, // never issued
		{"ticket": batch.Tickets[1].ID, "runtime": 20.0},
		{"ticket": "other#1", "runtime": 1.0}, // another stream's ticket
	}
	var resp observeBatchResponse
	if code := doJSON(t, "POST", srv.URL+"/v1/streams/jobs/observe/batch",
		map[string]any{"observations": obs}, &resp); code != http.StatusOK {
		t.Fatal("observe batch failed")
	}
	// Per-index outcomes: 0 and 2 landed, 1 (unknown ticket) and 3
	// (cross-stream ticket) failed without aborting the rest.
	if resp.Applied != 2 || len(resp.Results) != 4 {
		t.Fatalf("batch response: %+v", resp)
	}
	for i, wantOK := range []bool{true, false, true, false} {
		r := resp.Results[i]
		if r.Index != i || r.OK != wantOK || (r.Error == "") == !wantOK {
			t.Fatalf("result %d: %+v (want ok=%v)", i, r, wantOK)
		}
	}
	if !strings.Contains(resp.Results[3].Error, `belongs to stream "other"`) {
		t.Fatalf("cross-stream error: %q", resp.Results[3].Error)
	}
}

func TestHTTPStats(t *testing.T) {
	_, srv := newTestServer(t)
	// Empty service must list [] rather than null.
	resp, err := http.Get(srv.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	resp.Body.Close()
	if got := bytes.TrimSpace(raw.Bytes()); string(got) != "[]" {
		t.Fatalf("empty stream list = %q, want []", got)
	}
	createJobsStream(t, srv.URL)
	var tk Ticket
	doJSON(t, "POST", srv.URL+"/v1/streams/jobs/recommend", map[string]any{"features": []float64{4}}, &tk)
	var stats Stats
	if code := doJSON(t, "GET", srv.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatal("stats failed")
	}
	if stats.TotalIssued != 1 || stats.TotalPending != 1 || len(stats.Streams) != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	var health map[string]string
	if code := doJSON(t, "GET", srv.URL+"/v1/healthz", nil, &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}
}

// TestHTTPConcurrentStreams is the acceptance scenario: concurrent
// recommend/observe round trips against ≥2 independent streams through
// the HTTP front-end (run with -race).
func TestHTTPConcurrentStreams(t *testing.T) {
	svc, srv := newTestServer(t)
	streams := []string{"app-a", "app-b", "app-c"}
	for i, name := range streams {
		if err := svc.CreateStream(name, StreamConfig{
			Hardware: testHW(), Dim: 1, Options: core.Options{Seed: uint64(i + 1)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	const clients, iters = 9, 30
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := streams[c%len(streams)]
			for i := 0; i < iters; i++ {
				x := float64(i + 1)
				var tk Ticket
				if code := doJSON(t, "POST", srv.URL+"/v1/streams/"+name+"/recommend",
					map[string]any{"features": []float64{x}}, &tk); code != http.StatusOK {
					t.Errorf("recommend: %d", code)
					return
				}
				url := srv.URL + "/v1/observe"
				if i%2 == 0 {
					url = srv.URL + "/v1/streams/" + name + "/observe"
				}
				if code := doJSON(t, "POST", url,
					map[string]any{"ticket": tk.ID, "runtime": 2*x + float64(tk.Arm)}, nil); code != http.StatusOK {
					t.Errorf("observe: %d", code)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	stats := svc.Stats()
	if stats.TotalObserved != clients*iters {
		t.Fatalf("observed %d, want %d", stats.TotalObserved, clients*iters)
	}
	for _, info := range stats.Streams {
		if info.Round != (clients/len(streams))*iters {
			t.Fatalf("stream %s round = %d, want %d", info.Name, info.Round, (clients/len(streams))*iters)
		}
	}
}

// TestHTTPObserveNonCanonicalTicket pins that only the rendered ticket
// ID redeems a ticket: other spellings of the seq and IDs whose stream
// part is no valid stream name are malformed (400), and the live
// ticket survives them.
func TestHTTPObserveNonCanonicalTicket(t *testing.T) {
	_, srv := newTestServer(t)
	createJobsStream(t, srv.URL)
	var tk Ticket
	for i := 0; i < 256; i++ { // issue up to seq 0xff
		if code := doJSON(t, "POST", srv.URL+"/v1/streams/jobs/recommend",
			map[string]any{"features": []float64{10}}, &tk); code != http.StatusOK {
			t.Fatalf("recommend: %d", code)
		}
	}
	if tk.ID != "jobs#ff" {
		t.Fatalf("ticket %q, want jobs#ff", tk.ID)
	}
	for _, id := range []string{"jobs#FF", "jobs#00ff", "jobs#0ff", "a/b#1", "a#b#1"} {
		var errResp map[string]string
		if code := doJSON(t, "POST", srv.URL+"/v1/observe",
			map[string]any{"ticket": id, "runtime": 5}, &errResp); code != http.StatusBadRequest {
			t.Errorf("observe %q: %d (%v), want 400", id, code, errResp)
		}
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/observe",
		map[string]any{"ticket": tk.ID, "runtime": 5}, nil); code != http.StatusOK {
		t.Fatalf("canonical observe after rejected spellings: %d", code)
	}
}

package dist

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"banditware/internal/serve"
)

// replicaRows reads the router's GET /v1/router/replicas rows.
func replicaRows(t *testing.T, rt *Router) []ReplicaInfo {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/router/replicas", nil))
	var view struct {
		Replicas []ReplicaInfo `json:"replicas"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	return view.Replicas
}

// routerRequests sums the router's per-member proxied-request counters.
func routerRequests(t *testing.T, rt *Router) uint64 {
	t.Helper()
	var n uint64
	for _, r := range replicaRows(t, rt) {
		n += r.Requests
	}
	return n
}

// TestRouterObserveErrorPaths: the router answers a bad ticket
// redemption itself, without forwarding it — 400 for a missing or
// malformed ticket, 413 for a body over 1 MiB, 503 when no replica is
// ready — and a good redemption behind those still reaches the owner.
func TestRouterObserveErrorPaths(t *testing.T) {
	f := manualFleet(t, 2)
	client := &http.Client{Timeout: 5 * time.Second}
	createStreams(t, client, f.RouterURL(), 1, 2)
	var tk struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, client, f.RouterURL()+"/v1/streams/s0/recommend",
		map[string]any{"features": []float64{1, 2}}, &tk); code != http.StatusOK {
		t.Fatalf("recommend: status %d", code)
	}

	observe := func(rt *Router, body string) (int, map[string]string) {
		t.Helper()
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe", strings.NewReader(body)))
		var out map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("observe %.40q: body %q is not JSON: %v", body, rec.Body.Bytes(), err)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("observe %.40q: Content-Type %q", body, ct)
		}
		return rec.Code, out
	}

	big := `{"ticket":"` + tk.ID + `","runtime":1,"pad":"` + strings.Repeat("x", 1<<20) + `"}`
	cases := []struct {
		name string
		body string
		want int
	}{
		{"missing ticket", `{"runtime":1}`, http.StatusBadRequest},
		{"empty ticket", `{"ticket":"","runtime":1}`, http.StatusBadRequest},
		{"not JSON", `ticket=` + tk.ID, http.StatusBadRequest},
		{"malformed ticket ID", `{"ticket":"s0-7","runtime":1}`, http.StatusBadRequest},
		{"non-hex ticket seq", `{"ticket":"s0#zz","runtime":1}`, http.StatusBadRequest},
		{"body over 1 MiB", big, http.StatusRequestEntityTooLarge},
	}
	rt := f.Router()
	before := routerRequests(t, rt)
	for _, c := range cases {
		if code, out := observe(rt, c.body); code != c.want || out["error"] == "" {
			t.Errorf("%s: %d %v, want %d with an error message", c.name, code, out, c.want)
		}
	}
	if after := routerRequests(t, rt); after != before {
		t.Errorf("rejected observes were forwarded: %d proxied requests, want %d", after, before)
	}

	// The rejections leave the router able to forward a good redemption.
	if code, out := observe(rt, `{"ticket":"`+tk.ID+`","runtime":12.5}`); code != http.StatusOK {
		t.Fatalf("good observe after rejections: %d %v", code, out)
	}

	// No ready replica: a router whose only member is down.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	lone, err := NewRouter([]string{deadURL}, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Stop()
	if ready := lone.CheckNow(); len(ready) != 0 {
		t.Fatalf("dead member reported ready: %v", ready)
	}
	if code, out := observe(lone, `{"ticket":"s0#1","runtime":1}`); code != http.StatusServiceUnavailable || out["error"] == "" {
		t.Fatalf("observe with no ready replica: %d %v, want 503", code, out)
	}
}

// TestRouterForwardsUnchanged: a proxied request reaches the replica
// with its end-to-end headers and body intact, and the replica's
// status, body and Content-Type reach the client unchanged — on both
// the stream-owner route and the buffered ticket-redemption route.
func TestRouterForwardsUnchanged(t *testing.T) {
	type seen struct {
		method, path, body string
		header             http.Header
	}
	got := make(chan seen, 1)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		b, _ := io.ReadAll(r.Body)
		got <- seen{r.Method, r.URL.Path, string(b), r.Header.Clone()}
		w.Header().Set("Content-Type", "application/x-test; charset=utf-8")
		w.Header().Set("X-Replica-Echo", r.Header.Get("X-Custom"))
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, `{"echo":`+string(b)+`}`)
	}))
	defer backend.Close()
	rt, err := NewRouter([]string{backend.URL}, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for _, c := range []struct{ path, body string }{
		{"/v1/streams/s0/recommend", `{"features":[1,2]}`},
		{"/v1/observe", `{"ticket":"s0#1f","runtime":12.5}`},
	} {
		req, err := http.NewRequest(http.MethodPost, front.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Bench-Request", "123456789")
		req.Header.Set("X-Bench-Parent", "42")
		req.Header.Set("X-Custom", "v1")
		req.Header.Add("X-Multi", "a")
		req.Header.Add("X-Multi", "b")
		resp, err := front.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()

		s := <-got
		if s.method != http.MethodPost || s.path != c.path || s.body != c.body {
			t.Errorf("%s: replica saw %s %s %q", c.path, s.method, s.path, s.body)
		}
		for _, h := range []string{"Content-Type", "X-Bench-Request", "X-Bench-Parent", "X-Custom"} {
			if s.header.Get(h) != req.Header.Get(h) {
				t.Errorf("%s: header %s reached the replica as %q, sent %q", c.path, h, s.header.Get(h), req.Header.Get(h))
			}
		}
		if m := s.header.Values("X-Multi"); len(m) != 2 || m[0] != "a" || m[1] != "b" {
			t.Errorf("%s: multi-valued header reached the replica as %q", c.path, m)
		}
		if resp.StatusCode != http.StatusTeapot {
			t.Errorf("%s: status %d, replica sent 418", c.path, resp.StatusCode)
		}
		if want := `{"echo":` + c.body + `}`; string(body) != want {
			t.Errorf("%s: body %q, replica sent %q", c.path, body, want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-test; charset=utf-8" {
			t.Errorf("%s: Content-Type %q", c.path, ct)
		}
		if e := resp.Header.Get("X-Replica-Echo"); e != "v1" {
			t.Errorf("%s: response header X-Replica-Echo = %q", c.path, e)
		}
	}
}

// TestRouterDeadMemberAnswers502: a proxied request to a member that
// stopped listening answers 502, counts a transport error against that
// member, and triggers a re-probe that drops it from the ring.
func TestRouterDeadMemberAnswers502(t *testing.T) {
	f := manualFleet(t, 2)
	client := &http.Client{Timeout: 5 * time.Second}
	names := createStreams(t, client, f.RouterURL(), 16, 2)
	// Ring placement varies with the replicas' ports, and one member may
	// own every stream, so the victim is whichever member owns the first.
	stream := names[0]
	victim := f.Router().ownerOf(stream)
	victimIdx := -1
	for i, u := range f.ReplicaURLs() {
		if u == victim {
			victimIdx = i
		}
	}
	if victimIdx < 0 {
		t.Fatalf("owner %q of %s is not a fleet member", victim, stream)
	}
	if err := f.Kill(victimIdx); err != nil {
		t.Fatal(err)
	}

	var out map[string]string
	code := postJSON(t, client, f.RouterURL()+"/v1/streams/"+stream+"/recommend",
		map[string]any{"features": []float64{1, 2}}, &out)
	if code != http.StatusBadGateway || !strings.Contains(out["error"], victim) {
		t.Fatalf("recommend on a dead owner: %d %v, want 502 naming %s", code, out, victim)
	}
	var view struct {
		Replicas []ReplicaInfo `json:"replicas"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		getJSON(t, client, f.RouterURL()+"/v1/router/replicas", &view)
		var row ReplicaInfo
		for _, r := range view.Replicas {
			if r.URL == victim {
				row = r
			}
		}
		if row.Errors == 0 {
			t.Fatalf("dead member's error counter did not move: %+v", row)
		}
		if !row.Ready && f.Router().ownerOf(stream) != victim {
			break // the re-probe dropped it from the ring
		}
		if time.Now().After(deadline) {
			t.Fatalf("router did not re-probe the dead member: %+v", row)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := postJSON(t, client, f.RouterURL()+"/v1/streams/"+stream+"/recommend",
		map[string]any{"features": []float64{1, 2}}, nil); code != http.StatusOK {
		t.Fatalf("recommend after failover: %d", code)
	}
}

// routerPairBytesPin is the heap a router-proxied recommend+observe
// pair allocates against an in-process replica, router and replica
// server sides together: measured 14.2 KB on linux/amd64 with Go 1.24
// since the router forwards over its own pooled connections, against
// 22.0-22.1 KB through httputil.ReverseProxy with pooled copy buffers
// and 87.6 KB when every proxied request took a fresh 32 KiB buffer.
const routerPairBytesPin = 14800

// routerPair drives one recommend and the observe that redeems its
// ticket through the router handler h, failing tb on a non-200.
func routerPair(tb testing.TB, h http.Handler) {
	// http.NewRequest rather than httptest.NewRequest: the latter parses
	// through a fresh 4 KiB bufio.Reader that is not the router's cost.
	post := func(path string, body io.Reader) *http.Request {
		req, err := http.NewRequest(http.MethodPost, "http://router"+path, body)
		if err != nil {
			tb.Fatal(err)
		}
		return req
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, post("/v1/streams/s0/recommend", strings.NewReader(`{"features":[1.5,2]}`)))
	var tk struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tk); err != nil || rec.Code != http.StatusOK {
		tb.Fatalf("recommend: %d %q", rec.Code, rec.Body.Bytes())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, post("/v1/observe", strings.NewReader(`{"ticket":"`+tk.ID+`","runtime":12.5}`)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("observe: %d %q", rec.Code, rec.Body.Bytes())
	}
}

// TestRouterBytesPerProxiedPair pins the router hop's garbage: a
// proxied recommend+observe stays well under one 32 KiB copy buffer
// per request.
func TestRouterBytesPerProxiedPair(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	f := manualFleet(t, 1)
	client := &http.Client{Timeout: 5 * time.Second}
	createStreams(t, client, f.RouterURL(), 1, 2)
	h := f.Router().Handler()
	for i := 0; i < 256; i++ {
		routerPair(t, h)
	}
	const n = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		routerPair(t, h)
	}
	runtime.ReadMemStats(&m1)
	got := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	t.Logf("%.0f B per proxied recommend+observe", got)
	if got > routerPairBytesPin {
		t.Errorf("%.0f B per proxied recommend+observe, pinned at %d — the router hop regressed", got, routerPairBytesPin)
	}
}

// BenchmarkRouterHop measures one recommend plus the observe that
// redeems it through Router.Handler() against one in-process replica
// on loopback: the router hop with the replica's HTTP handling behind
// it, without the client's transport in front.
func BenchmarkRouterHop(b *testing.B) {
	f, err := NewLocalFleet(FleetOptions{Replicas: 1, SyncInterval: -1, PollInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := f.Replica(0).Service().CreateStream("s0", serve.StreamConfig{Hardware: testHW(), Dim: 2}); err != nil {
		b.Fatal(err)
	}
	h := f.Router().Handler()
	for i := 0; i < 256; i++ {
		routerPair(b, h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routerPair(b, h)
	}
}

package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// routerDo sends one request with a JSON body (none when body is "")
// and returns the status and the decoded answer.
func routerDo(t *testing.T, client *http.Client, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s %s: answer %q is not JSON: %v", method, url, raw, err)
	}
	return resp.StatusCode, out
}

// TestRouterBroadcastUnanimousAnswers: when every member gives a
// broadcast the same non-2xx answer, the router passes it through —
// status and the first member's body — without counting errors or
// re-probing; members that disagree still answer 502 with the
// per-member detail.
func TestRouterBroadcastUnanimousAnswers(t *testing.T) {
	f := manualFleet(t, 3)
	client := &http.Client{Timeout: 5 * time.Second}
	createStreams(t, client, f.RouterURL(), 1, 2)
	create := `{"name":"s0","hardware_spec":"H0=2x16;H1=3x24;H2=4x16","dim":2}`
	checked := replicaRows(t, f.Router())[0].LastChecked

	for _, c := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"duplicate create", http.MethodPost, "/v1/streams", create, http.StatusConflict},
		{"malformed create", http.MethodPost, "/v1/streams", `{"bogus":1}`, http.StatusBadRequest},
		{"unknown stream delete", http.MethodDelete, "/v1/streams/nope", "", http.StatusNotFound},
	} {
		code, out := routerDo(t, client, c.method, f.RouterURL()+c.path, c.body)
		direct, want := routerDo(t, client, c.method, f.ReplicaURLs()[0]+c.path, c.body)
		if code != c.want || direct != c.want {
			t.Errorf("%s: router %d %v, replica %d; want %d from both", c.name, code, out, direct, c.want)
			continue
		}
		if fmt.Sprint(out) != fmt.Sprint(want) {
			t.Errorf("%s: router answered %v, the replica %v", c.name, out, want)
		}
	}

	// One member already holds s1: it refuses the create the others
	// accept, so the fleet disagrees.
	if code, out := routerDo(t, client, http.MethodPost, f.ReplicaURLs()[0]+"/v1/streams",
		strings.Replace(create, `"s0"`, `"s1"`, 1)); code != http.StatusCreated {
		t.Fatalf("direct create: %d %v", code, out)
	}
	code, out := routerDo(t, client, http.MethodPost, f.RouterURL()+"/v1/streams",
		strings.Replace(create, `"s0"`, `"s1"`, 1))
	detail, _ := out["replicas"].(map[string]any)
	if code != http.StatusBadGateway || len(detail) != 3 ||
		!strings.HasPrefix(fmt.Sprint(detail[f.ReplicaURLs()[0]]), "409: ") {
		t.Fatalf("disagreeing create: %d %v, want 502 with the 409 in the detail", code, out)
	}

	time.Sleep(100 * time.Millisecond) // room for a stray re-probe to land
	for _, row := range replicaRows(t, f.Router()) {
		if row.Errors != 0 || !row.LastChecked.Equal(checked) {
			t.Errorf("member answers counted as failures: %+v (last probe %v before)", row, checked)
		}
	}
}

// TestRouterBroadcastCutAnswerFails: a member whose answer to a
// broadcast breaks off mid-body has failed it — the router answers 502
// naming that member and counts its error, rather than passing the
// fragment off as success.
func TestRouterBroadcastCutAnswerFails(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.ReadAll(r.Body)
		conn, bw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		bw.WriteString("HTTP/1.1 201 Created\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n")
		bw.WriteString(`{"name":"s`)
		bw.Flush()
	}))
	defer backend.Close()
	rt, front := frontRouter(t, backend.URL)

	code, out := routerDo(t, front.Client(), http.MethodPost, front.URL+"/v1/streams", `{"name":"s0"}`)
	detail, _ := out["replicas"].(map[string]any)
	if code != http.StatusBadGateway || detail[backend.URL] == nil || detail[backend.URL] == "ok" {
		t.Fatalf("cut answer: %d %v, want 502 naming %s", code, out, backend.URL)
	}
	if row := replicaRow(t, rt, backend.URL); row.Errors != 1 {
		t.Errorf("cut answer counted %d member errors, want 1", row.Errors)
	}
}

// TestRouterBroadcastOutlastsProbeTimeout: a broadcast waits for a
// member slower than the readiness probe's bound; only the router
// server's write timeout limits it.
func TestRouterBroadcastOutlastsProbeTimeout(t *testing.T) {
	delay := probeTimeout + 500*time.Millisecond
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.ReadAll(r.Body)
		time.Sleep(delay)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		io.WriteString(w, `{"name":"s0"}`)
	}))
	defer backend.Close()
	rt, front := frontRouter(t, backend.URL)

	code, out := routerDo(t, &http.Client{Timeout: 10 * time.Second}, http.MethodPost, front.URL+"/v1/streams", `{"name":"s0"}`)
	if code != http.StatusCreated || out["name"] != "s0" {
		t.Fatalf("slow create: %d %v, want 201", code, out)
	}
	if row := replicaRow(t, rt, backend.URL); row.Errors != 0 {
		t.Errorf("slow member counted %d errors", row.Errors)
	}
}

// TestRouterBroadcastClientCancel: a client that gives up on a
// broadcast counts no error against the member it was waiting on and
// triggers no re-probe.
func TestRouterBroadcastClientCancel(t *testing.T) {
	var probes atomic.Int64
	answered := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/readyz" {
			probes.Add(1)
			return
		}
		io.ReadAll(r.Body)
		defer close(answered)
		select {
		case <-time.After(500 * time.Millisecond):
		case <-r.Context().Done():
			return
		}
		w.WriteHeader(http.StatusCreated)
	}))
	defer backend.Close()
	rt, front := frontRouter(t, backend.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/v1/streams", strings.NewReader(`{"name":"s0"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := front.Client().Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("the client's broadcast outlived its deadline: %d", resp.StatusCode)
	}
	<-answered
	time.Sleep(100 * time.Millisecond) // room for a stray re-probe to land
	if row := replicaRow(t, rt, backend.URL); row.Errors != 0 {
		t.Errorf("a client's cancel counted against the member: %+v", row)
	}
	if n := probes.Load(); n != 0 {
		t.Errorf("a client's cancel re-probed the fleet %d times", n)
	}
}

// TestRouterReadinessView: a member answering 503 on /v1/readyz leaves
// the ring at the next probe round and returns at the round after it
// recovers. After each CheckNow the router's /v1/readyz, stream
// routing and the /v1/router/replicas rows agree with the members'
// answers, and the probes leave the request counters alone.
func TestRouterReadinessView(t *testing.T) {
	var up [2]atomic.Bool
	urls := make([]string, 2)
	for i := range up {
		up[i].Store(true)
		backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/readyz" && !up[i].Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintf(w, `{"backend":%d}`, i)
		}))
		defer backend.Close()
		urls[i] = backend.URL
	}
	rt, err := NewRouter(urls, RouterOptions{PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	h := rt.Handler()
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}

	var sent [2]uint64 // proxied requests per member
	for _, c := range []struct {
		name string
		up   [2]bool
	}{
		{"both ready", [2]bool{true, true}},
		{"member 0 unready", [2]bool{false, true}},
		{"none ready", [2]bool{false, false}},
		{"both recovered", [2]bool{true, true}},
	} {
		for i := range up {
			up[i].Store(c.up[i])
		}
		var want []string
		for i, u := range urls {
			if c.up[i] {
				want = append(want, u)
			}
		}
		if ready := rt.CheckNow(); fmt.Sprint(ready) != fmt.Sprint(NewRing(want).Members()) {
			t.Fatalf("%s: CheckNow reported %v, want %v", c.name, ready, want)
		}

		wantReady := http.StatusOK
		if len(want) == 0 {
			wantReady = http.StatusServiceUnavailable
		}
		if code, body := get("/v1/readyz"); code != wantReady {
			t.Errorf("%s: router /v1/readyz %d %s, want %d", c.name, code, body, wantReady)
		}

		for k := 0; k < 8; k++ {
			code, body := get(fmt.Sprintf("/v1/streams/s%d", k))
			if len(want) == 0 {
				if code != http.StatusServiceUnavailable {
					t.Errorf("%s: s%d routed with no ready member: %d %s", c.name, k, code, body)
				}
				continue
			}
			owner := -1
			fmt.Sscanf(body, `{"backend":%d}`, &owner)
			if code != http.StatusOK || owner < 0 || !c.up[owner] {
				t.Errorf("%s: s%d reached backend %d (%d %s); ready set %v", c.name, k, owner, code, body, want)
				continue
			}
			sent[owner]++
		}

		for i, u := range urls {
			row := replicaRow(t, rt, u)
			wantErr := ""
			if !c.up[i] {
				wantErr = "503 Service Unavailable"
			}
			if row.Ready != c.up[i] || row.Error != wantErr || row.LastChecked.IsZero() {
				t.Errorf("%s: row %+v, want ready %v and error %q", c.name, row, c.up[i], wantErr)
			}
			if row.Requests != sent[i] || row.Errors != 0 {
				t.Errorf("%s: row counts %d requests and %d errors, want the %d proxied and none",
					c.name, row.Requests, row.Errors, sent[i])
			}
		}
	}
}

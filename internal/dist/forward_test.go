package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// replicaRow returns member's row of GET /v1/router/replicas.
func replicaRow(t *testing.T, rt *Router, member string) ReplicaInfo {
	t.Helper()
	rows := replicaRows(t, rt)
	for _, r := range rows {
		if r.URL == member {
			return r
		}
	}
	t.Fatalf("no row for %s in %+v", member, rows)
	return ReplicaInfo{}
}

// idleConns counts the router's pooled connections to member.
func idleConns(rt *Router, member string) int {
	f := rt.members[member].fwd
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.idle)
}

// frontRouter serves a router over the one backend URL on a loopback
// listener.
func frontRouter(t *testing.T, backend string) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := NewRouter([]string{backend}, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		front.Close()
		rt.Stop()
	})
	return rt, front
}

// TestRouterRetriesStaleConnection: a replica that closes an idle
// keep-alive connection leaves a stale one in the router's pool. The
// next request meets it, goes once more over a fresh dial, answers 200
// and counts no error against the replica.
func TestRouterRetriesStaleConnection(t *testing.T) {
	var mu sync.Mutex
	var opened, closed int
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		io.WriteString(w, `{"echo":`+string(b)+`}`)
	}))
	backend.Config.IdleTimeout = 50 * time.Millisecond
	backend.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch s {
		case http.StateNew:
			opened++
		case http.StateClosed:
			closed++
		}
	}
	backend.Start()
	defer backend.Close()
	rt, front := frontRouter(t, backend.URL)
	client := &http.Client{Timeout: 5 * time.Second}

	for i, body := range []string{`{"features":[1]}`, `{"features":[2]}`} {
		if i == 1 {
			// Wait until the replica has closed the pooled connection.
			deadline := time.Now().Add(5 * time.Second)
			for {
				mu.Lock()
				c := closed
				mu.Unlock()
				if c == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the replica never closed the idle connection")
				}
				time.Sleep(10 * time.Millisecond)
			}
			if n := idleConns(rt, backend.URL); n != 1 {
				t.Fatalf("%d pooled connections before the second request, want the stale one", n)
			}
		}
		resp, err := client.Post(front.URL+"/v1/streams/s0/recommend", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(got) != `{"echo":`+body+`}` {
			t.Fatalf("request %d: %d %q", i, resp.StatusCode, got)
		}
	}
	if row := replicaRow(t, rt, backend.URL); row.Errors != 0 || row.Requests != 2 {
		t.Errorf("replica row %+v, want 2 requests and no errors", row)
	}
	mu.Lock()
	defer mu.Unlock()
	if opened != 2 {
		t.Errorf("replica saw %d connections, want 2 (the stale one and the fresh dial)", opened)
	}
}

// TestRouterStreamsChunkedStats: GET /v1/stats over enough streams to
// pass 4 KiB reaches the client byte for byte as the replica sends it,
// in the chunked encoding the replica chose.
func TestRouterStreamsChunkedStats(t *testing.T) {
	f := manualFleet(t, 1)
	client := &http.Client{Timeout: 5 * time.Second}
	createStreams(t, client, f.RouterURL(), 24, 2)
	get := func(url string) (*http.Response, []byte) {
		t.Helper()
		resp, err := client.Get(url + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}
	direct, want := get(f.ReplicaURLs()[0])
	routed, got := get(f.RouterURL())
	if len(want) <= 4<<10 {
		t.Fatalf("stats body is %d bytes, want over 4 KiB", len(want))
	}
	if !bytes.Equal(got, want) {
		t.Errorf("routed stats differ from the replica's:\n got %q\nwant %q", got, want)
	}
	for _, resp := range []*http.Response{direct, routed} {
		if resp.StatusCode != http.StatusOK || resp.ContentLength != -1 ||
			len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
			t.Errorf("%s: %d, length %d, transfer encoding %q; want 200 chunked",
				resp.Request.URL, resp.StatusCode, resp.ContentLength, resp.TransferEncoding)
		}
	}
	if ct := routed.Header.Get("Content-Type"); ct != direct.Header.Get("Content-Type") {
		t.Errorf("routed Content-Type %q, replica sent %q", ct, direct.Header.Get("Content-Type"))
	}
}

// TestRouterForwardsUnknownLengthBody: a request body of unknown length
// reaches the replica intact, still of unknown length, and a bounded
// body keeps its Content-Length.
func TestRouterForwardsUnknownLengthBody(t *testing.T) {
	type seen struct {
		length int64
		body   []byte
	}
	got := make(chan seen, 1)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("replica read: %v", err)
		}
		got <- seen{r.ContentLength, b}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer backend.Close()
	_, front := frontRouter(t, backend.URL)

	payload := bytes.Repeat([]byte("0123456789abcdef"), 10<<10) // 160 KiB, past the replay bound
	for _, c := range []struct {
		name   string
		body   io.Reader
		length int64
	}{
		// io.MultiReader hides the length, so the client sends it chunked.
		{"unknown length", io.MultiReader(bytes.NewReader(payload)), -1},
		{"known length", bytes.NewReader(payload), int64(len(payload))},
	} {
		req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/streams/s0/observe/batch", c.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := front.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("%s: status %d", c.name, resp.StatusCode)
		}
		s := <-got
		if s.length != c.length || !bytes.Equal(s.body, payload) {
			t.Errorf("%s: replica saw length %d and %d bytes (intact %v), want length %d and %d bytes",
				c.name, s.length, len(s.body), bytes.Equal(s.body, payload), c.length, len(payload))
		}
	}
}

// TestRouterCancelledRequestClosesConnection: a client that goes away
// mid-request closes the router's connection to the replica instead of
// pooling it, counts no error against the replica, and leaves no
// goroutine behind.
func TestRouterCancelledRequestClosesConnection(t *testing.T) {
	arrived := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.ReadAll(r.Body)
		close(arrived)
		<-r.Context().Done() // answers only once the router hangs up
	}))
	defer backend.Close()
	rt, front := frontRouter(t, backend.URL)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/v1/streams/s0/recommend",
			strings.NewReader(`{"features":[1]}`))
		_, err := client.Do(req)
		done <- err
	}()
	<-arrived
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled request succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the request:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := idleConns(rt, backend.URL); n != 0 {
		t.Errorf("%d pooled connections after a cancelled request, want 0", n)
	}
	if row := replicaRow(t, rt, backend.URL); row.Errors != 0 {
		t.Errorf("a client's cancel counted against the replica: %+v", row)
	}
}

// TestRouterMalformedBodyAnswers400: a request body the router cannot
// read — here a broken chunked encoding — answers 400 on every route
// that reads or streams a body, not 413 (kept for a body over the
// limit) and not 502 (the replica did not fail).
func TestRouterMalformedBodyAnswers400(t *testing.T) {
	f := manualFleet(t, 1)
	client := &http.Client{Timeout: 5 * time.Second}
	createStreams(t, client, f.RouterURL(), 1, 2)
	addr := strings.TrimPrefix(f.RouterURL(), "http://")
	for _, path := range []string{"/v1/observe", "/v1/streams", "/v1/streams/s0/recommend"} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// A chunk size of "zz" is not hexadecimal.
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: router\r\nContent-Type: application/json\r\n"+
			"Transfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n", path)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var out map[string]string
		err = json.NewDecoder(resp.Body).Decode(&out)
		conn.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || out["error"] == "" {
			t.Errorf("%s: %d %v (%v), want 400 with an error message", path, resp.StatusCode, out, err)
		}
	}
	if row := replicaRow(t, f.Router(), f.ReplicaURLs()[0]); row.Errors != 0 {
		t.Errorf("a malformed client body counted against the replica: %+v", row)
	}
}

// TestRouterStreamsChunkedResponse: a replica response of unknown
// length reaches the client as it is written, not once it ends.
func TestRouterStreamsChunkedResponse(t *testing.T) {
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "first\n")
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		io.WriteString(w, "second\n")
	}))
	defer backend.Close()
	_, front := frontRouter(t, backend.URL)
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil || line != "first\n" {
		t.Fatalf("first chunk: %q %v", line, err)
	}
	close(release)
	if rest, err := io.ReadAll(br); err != nil || string(rest) != "second\n" {
		t.Fatalf("rest of the body: %q %v", rest, err)
	}
}

// TestRouterStripsHopHeaders: hop-by-hop headers, and the headers a
// Connection header names, stop at the router in both directions;
// end-to-end headers pass.
func TestRouterStripsHopHeaders(t *testing.T) {
	got := make(chan http.Header, 1)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got <- r.Header.Clone()
		h := w.Header()
		h.Set("Connection", "X-Secret")
		h.Set("X-Secret", "1")
		h.Set("Keep-Alive", "timeout=9")
		h.Set("Proxy-Authenticate", "Basic")
		h.Set("X-Visible", "1")
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()
	_, front := frontRouter(t, backend.URL)

	req, err := http.NewRequest(http.MethodGet, front.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Connection", "X-Drop")
	req.Header.Set("X-Drop", "1")
	req.Header.Set("Keep-Alive", "timeout=5")
	req.Header.Set("Proxy-Authorization", "Basic eA==")
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("X-Keep", "1")
	resp, err := front.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	seen := <-got
	for _, h := range []string{"Connection", "X-Drop", "Keep-Alive", "Proxy-Authorization", "Upgrade"} {
		if v, ok := seen[h]; ok {
			t.Errorf("request header %s reached the replica as %q", h, v)
		}
	}
	if seen.Get("X-Keep") != "1" {
		t.Errorf("end-to-end request header X-Keep was dropped: %v", seen)
	}
	for _, h := range []string{"X-Secret", "Keep-Alive", "Proxy-Authenticate"} {
		if v, ok := resp.Header[h]; ok {
			t.Errorf("response header %s reached the client as %q", h, v)
		}
	}
	if resp.Header.Get("X-Visible") != "1" {
		t.Errorf("end-to-end response header X-Visible was dropped: %v", resp.Header)
	}
}

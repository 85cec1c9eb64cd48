package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"banditware/internal/hardware"
	"banditware/internal/serve"
)

func testHW() hardware.Set {
	return hardware.Set{
		{Name: "H0", CPUs: 2, MemoryGB: 16},
		{Name: "H1", CPUs: 3, MemoryGB: 24},
		{Name: "H2", CPUs: 4, MemoryGB: 16},
	}
}

// manualFleet builds a fleet with background sync and fast polling
// disabled-down: tests drive replication with SyncAll and membership
// with CheckNow, keeping everything deterministic.
func manualFleet(t *testing.T, replicas int) *LocalFleet {
	t.Helper()
	f, err := NewLocalFleet(FleetOptions{
		Replicas:     replicas,
		SyncInterval: -1,
		PollInterval: time.Hour, // CheckNow only
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// postJSON sends body to url and decodes the response into out,
// returning the status code.
func postJSON(t *testing.T, client *http.Client, url string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// createStreams creates n raw-vector streams through the router (so
// every replica gets them) and returns their names.
func createStreams(t *testing.T, client *http.Client, routerURL string, n, dim int) []string {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		body := map[string]any{
			"name":          names[i],
			"hardware_spec": "H0=2x16;H1=3x24;H2=4x16",
			"dim":           dim,
			"seed":          uint64(100 + i),
		}
		if code := postJSON(t, client, routerURL+"/v1/streams", body, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", names[i], code)
		}
	}
	return names
}

// TestReplicaSyncConvergence: traffic on one member reaches every
// peer through the delta push, and the fleet's counters converge to
// the fleet-wide totals.
func TestReplicaSyncConvergence(t *testing.T) {
	f := manualFleet(t, 3)
	cfg := serve.StreamConfig{Hardware: testHW(), Dim: 2}
	for i := 0; i < 3; i++ {
		if err := f.Replica(i).Service().CreateStream("s", cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		arm := i % 3
		x := []float64{float64(i%5 + 1), float64(i%3 + 1)}
		if err := f.Replica(i%3).Service().ObserveDirectOutcome("s", arm, x, serve.Outcome{Runtime: float64(10 + arm)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.SyncAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		info, err := f.Replica(i).Service().StreamInfo("s")
		if err != nil {
			t.Fatal(err)
		}
		if info.Observed != 30 {
			t.Fatalf("replica %d observed = %d, want fleet-wide 30", i, info.Observed)
		}
	}
	st := f.Replica(0).Status()
	if st.Sync.Syncs == 0 || len(st.Peers) != 2 {
		t.Fatalf("replica 0 status = %+v", st)
	}
}

// TestRouterPartitionsStreams: every stream's traffic lands on exactly
// one replica, and ticket redemption through the bare /v1/observe
// route follows it there.
func TestRouterPartitionsStreams(t *testing.T) {
	f := manualFleet(t, 3)
	client := &http.Client{Timeout: 5 * time.Second}
	names := createStreams(t, client, f.RouterURL(), 8, 2)

	for _, name := range names {
		for i := 0; i < 6; i++ {
			var tk struct {
				ID  string `json:"id"`
				Arm int    `json:"arm"`
			}
			body := map[string]any{"features": []float64{float64(i + 1), 2}}
			if code := postJSON(t, client, f.RouterURL()+"/v1/streams/"+name+"/recommend", body, &tk); code != http.StatusOK {
				t.Fatalf("recommend %s: status %d", name, code)
			}
			ob := map[string]any{"ticket": tk.ID, "runtime": 12.5}
			if code := postJSON(t, client, f.RouterURL()+"/v1/observe", ob, nil); code != http.StatusOK {
				t.Fatalf("observe %s: status %d", name, code)
			}
		}
	}
	// Partitioning: each stream's tickets were issued (and redeemed) by
	// exactly one member.
	for _, name := range names {
		issuedBy := 0
		for i := 0; i < 3; i++ {
			info, err := f.Replica(i).Service().StreamInfo(name)
			if err != nil {
				t.Fatal(err)
			}
			if info.Issued > 0 {
				issuedBy++
				if info.Observed != 6 {
					t.Fatalf("stream %s owner observed %d of 6 — ticket redemption left the owner", name, info.Observed)
				}
			}
		}
		if issuedBy != 1 {
			t.Fatalf("stream %s was served by %d replicas, want exactly 1", name, issuedBy)
		}
	}
}

// TestRouterReplicasEndpoint: the fleet view reports every member with
// its health and proxy counters.
func TestRouterReplicasEndpoint(t *testing.T) {
	f := manualFleet(t, 3)
	client := &http.Client{Timeout: 5 * time.Second}
	createStreams(t, client, f.RouterURL(), 3, 2)

	var view struct {
		Replicas []ReplicaInfo `json:"replicas"`
	}
	if code := getJSON(t, client, f.RouterURL()+"/v1/router/replicas", &view); code != http.StatusOK {
		t.Fatalf("replicas endpoint status %d", code)
	}
	if len(view.Replicas) != 3 {
		t.Fatalf("replicas = %+v", view.Replicas)
	}
	var requests uint64
	for _, r := range view.Replicas {
		if !r.Ready {
			t.Fatalf("replica %s not ready: %+v", r.URL, r)
		}
		requests += r.Requests
	}
	if requests == 0 {
		t.Fatal("no proxied requests counted after three broadcast creates")
	}
}

// TestRouterRebalancesOnLoss: killing a member moves its streams to
// survivors (which already hold the model via replication) and a
// restarted member bootstraps back to the fleet state.
func TestRouterRebalancesOnLoss(t *testing.T) {
	f := manualFleet(t, 3)
	client := &http.Client{Timeout: 5 * time.Second}
	names := createStreams(t, client, f.RouterURL(), 9, 2)

	recommend := func(name string) (int, string) {
		var tk struct {
			ID string `json:"id"`
		}
		body := map[string]any{"features": []float64{1, 2}}
		code := postJSON(t, client, f.RouterURL()+"/v1/streams/"+name+"/recommend", body, &tk)
		return code, tk.ID
	}
	// Ring placement hashes the replicas' (ephemeral) URLs, so which
	// replica owns which stream varies run to run: the victim is the
	// replica that served the most streams.
	owned := make([]map[string]bool, 3)
	for i := range owned {
		owned[i] = map[string]bool{}
	}
	for _, name := range names {
		if _, id := recommend(name); id != "" {
			for i := range owned {
				info, err := f.Replica(i).Service().StreamInfo(name)
				if err != nil {
					t.Fatal(err)
				}
				if info.Issued > 0 {
					owned[i][name] = true
				}
			}
		}
	}
	victim := 0
	for i := range owned {
		if len(owned[i]) > len(owned[victim]) {
			victim = i
		}
	}
	victimStreams := owned[victim]
	victimURL := f.ReplicaURLs()[victim]
	if len(victimStreams) == 0 {
		t.Fatal("no replica served any stream")
	}
	if err := f.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if err := f.Kill(victim); err != nil {
		t.Fatal(err)
	}
	f.Router().CheckNow()

	for name := range victimStreams {
		code, id := recommend(name)
		if code != http.StatusOK || id == "" {
			t.Fatalf("recommend %s after replica loss: status %d", name, code)
		}
		if !strings.HasPrefix(id, name+"#") {
			t.Fatalf("ticket %q does not belong to stream %s", id, name)
		}
	}
	// The ring moved only the victim's streams: survivors' streams kept
	// their owner, so their pending tickets stayed redeemable.
	var view struct {
		Replicas []ReplicaInfo `json:"replicas"`
	}
	getJSON(t, client, f.RouterURL()+"/v1/router/replicas", &view)
	for _, r := range view.Replicas {
		if r.URL == victimURL && r.Ready {
			t.Fatalf("killed replica still reported ready: %+v", r)
		}
	}

	if err := f.Restart(victim); err != nil {
		t.Fatal(err)
	}
	f.Router().CheckNow()
	for name := range victimStreams {
		info, err := f.Replica(victim).Service().StreamInfo(name)
		if err != nil {
			t.Fatalf("restarted replica lost stream %s: %v", name, err)
		}
		if info.Observed == 0 && info.Issued == 0 && info.Round == 0 {
			// The stream existed pre-kill with issued tickets; bootstrap
			// must have carried that state back.
			t.Fatalf("restarted replica has empty state for %s: %+v", name, info)
		}
	}
}

// TestReplicaStatusAndSnapshotEndpoints exercises the dist HTTP
// surface directly: status, snapshot, and a delta round trip.
func TestReplicaStatusAndSnapshotEndpoints(t *testing.T) {
	f := manualFleet(t, 2)
	client := &http.Client{Timeout: 5 * time.Second}
	cfg := serve.StreamConfig{Hardware: testHW(), Dim: 1}
	for i := 0; i < 2; i++ {
		if err := f.Replica(i).Service().CreateStream("s", cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Replica(0).Service().ObserveDirectOutcome("s", 1, []float64{2}, serve.Outcome{Runtime: 20}); err != nil {
		t.Fatal(err)
	}

	var status ReplicaStatus
	if code := getJSON(t, client, f.ReplicaURLs()[0]+"/v1/dist/status", &status); code != http.StatusOK {
		t.Fatalf("status endpoint: %d", code)
	}
	if !status.Ready || len(status.Peers) != 1 {
		t.Fatalf("status = %+v", status)
	}

	resp, err := client.Get(f.ReplicaURLs()[0] + "/v1/dist/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot endpoint: %d %v", resp.StatusCode, err)
	}
	if !bytes.Contains(snap, []byte(`"format": "banditware-service"`)) {
		t.Fatalf("snapshot body does not look like an envelope: %.80s", snap)
	}

	// A delta POST applies; a full snapshot on the delta route is a 400.
	base := f.Replica(0).Service().NewSyncState()
	cap, err := f.Replica(0).Service().CaptureDelta(base)
	if err != nil {
		t.Fatal(err)
	}
	var delta bytes.Buffer
	if err := cap.Encode(&delta); err != nil {
		t.Fatal(err)
	}
	resp, err = client.Post(f.ReplicaURLs()[1]+"/v1/dist/delta", "application/json", &delta)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta POST: %d", resp.StatusCode)
	}
	resp, err = client.Post(f.ReplicaURLs()[1]+"/v1/dist/delta", "application/json", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("full snapshot on delta route: %d, want 400", resp.StatusCode)
	}
}

// TestReplicaStatusKeepsLastSyncError: a peer that refuses a delta with
// 409 leaves its message in /v1/dist/status as last_error, with the time
// in last_error_at; before any delivery fails, neither field appears.
func TestReplicaStatusKeepsLastSyncError(t *testing.T) {
	const refusal = `{"error":"serve: stream \"s\": delta not mergeable"}`
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
		io.WriteString(w, refusal)
	}))
	defer peer.Close()
	svc := serve.NewService(serve.ServiceOptions{})
	if err := svc.CreateStream("s", serve.StreamConfig{Hardware: testHW(), Dim: 1}); err != nil {
		t.Fatal(err)
	}
	r := NewReplica(svc, ReplicaOptions{Peers: []string{peer.URL}})
	status := func() map[string]any {
		t.Helper()
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/dist/status", nil))
		var body struct {
			Sync map[string]any `json:"sync"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		return body.Sync
	}

	// Nothing to ship yet: the empty capture commits without a POST.
	if err := r.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if sync := status(); sync["syncs"] != 1.0 || len(sync) != 3 {
		t.Fatalf("status after a successful sync = %v, want only syncs, failures and last_sync", sync)
	}

	if err := svc.ObserveDirectOutcome("s", 1, []float64{2}, serve.Outcome{Runtime: 20}); err != nil {
		t.Fatal(err)
	}
	if err := r.SyncOnce(); err == nil {
		t.Fatal("SyncOnce succeeded against a peer answering 409")
	}
	sync := status()
	want := fmt.Sprintf("peer %s: delta rejected: 409 Conflict: %s", peer.URL, refusal)
	if sync["last_error"] != want || sync["failures"] != 1.0 {
		t.Fatalf("status = %v, want failures 1 and last_error %q", sync, want)
	}
	at, _ := sync["last_error_at"].(string)
	if when, err := time.Parse(time.RFC3339Nano, at); err != nil || when.IsZero() {
		t.Fatalf("last_error_at = %v (%v)", sync["last_error_at"], err)
	}
}

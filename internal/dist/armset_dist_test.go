package dist

import (
	"net/http"
	"testing"
	"time"

	"banditware/internal/serve"
)

// armChurn drives one arm-lifecycle request through the router.
func armChurn(t *testing.T, client *http.Client, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var out map[string]any
	var code int
	switch method {
	case http.MethodPost:
		code = postJSON(t, client, url, body, &out)
	case http.MethodDelete:
		req, err := http.NewRequest(http.MethodDelete, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		code = resp.StatusCode
	default:
		t.Fatalf("unsupported method %s", method)
	}
	return code, out
}

// replicaArmCount reads one replica's arm count for a stream directly.
func replicaArmCount(t *testing.T, f *LocalFleet, i int, stream string) int {
	t.Helper()
	arms, err := f.Replica(i).Service().Arms(stream)
	if err != nil {
		t.Fatal(err)
	}
	return len(arms)
}

// TestRouterBroadcastsArmChurn: arm add, drain, promote, and retire
// through the router land on every replica, and delta replication keeps
// converging across the churn — the merge needs index-aligned arm sets
// fleet-wide, which is exactly what the broadcast guarantees.
func TestRouterBroadcastsArmChurn(t *testing.T) {
	f := manualFleet(t, 3)
	client := &http.Client{Timeout: 5 * time.Second}
	createStreams(t, client, f.RouterURL(), 1, 2)
	base := f.RouterURL() + "/v1/streams/s0/arms"

	// Pre-churn traffic on the owner, replicated everywhere.
	for i := 0; i < 12; i++ {
		body := map[string]any{"features": []float64{float64(i%5 + 1), 2}}
		var tk struct {
			ID string `json:"id"`
		}
		if code := postJSON(t, client, f.RouterURL()+"/v1/streams/s0/recommend", body, &tk); code != http.StatusOK {
			t.Fatalf("recommend: status %d", code)
		}
		if code := postJSON(t, client, f.RouterURL()+"/v1/observe", map[string]any{"ticket": tk.ID, "runtime": 15.0}, nil); code != http.StatusOK {
			t.Fatalf("observe: status %d", code)
		}
	}
	if err := f.SyncAll(); err != nil {
		t.Fatal(err)
	}

	if code, out := armChurn(t, client, http.MethodPost, base, map[string]any{
		"hardware_spec": "H3=8x64", "warm": "pooled",
	}); code != http.StatusCreated {
		t.Fatalf("broadcast add: status %d (%v)", code, out)
	}
	for i := 0; i < 3; i++ {
		if n := replicaArmCount(t, f, i, "s0"); n != 4 {
			t.Fatalf("replica %d has %d arms after broadcast add, want 4", i, n)
		}
	}

	// Drain then promote the new arm on every member.
	if code, out := armChurn(t, client, http.MethodPost, base+"/3/drain", map[string]any{}); code != http.StatusOK {
		t.Fatalf("broadcast drain: status %d (%v)", code, out)
	}
	for i := 0; i < 3; i++ {
		arms, err := f.Replica(i).Service().Arms("s0")
		if err != nil {
			t.Fatal(err)
		}
		if arms[3].Status != "draining" {
			t.Fatalf("replica %d arm 3 status %q after broadcast drain", i, arms[3].Status)
		}
	}
	if code, _ := armChurn(t, client, http.MethodPost, base+"/3/promote", map[string]any{}); code != http.StatusOK {
		t.Fatalf("broadcast promote: status %d", code)
	}

	// Traffic and replication still converge with the grown arm set.
	for i := 0; i < 9; i++ {
		arm := i % 4
		x := []float64{float64(i%5 + 1), 3}
		if err := f.Replica(i%3).Service().ObserveDirectOutcome("s0", arm, x, serve.Outcome{Runtime: float64(10 + arm)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.SyncAll(); err != nil {
		t.Fatal(err)
	}
	var observed [3]uint64
	for i := 0; i < 3; i++ {
		info, err := f.Replica(i).Service().StreamInfo("s0")
		if err != nil {
			t.Fatal(err)
		}
		observed[i] = info.Observed
	}
	if observed[0] != observed[1] || observed[1] != observed[2] {
		t.Fatalf("replicas diverged after churn + sync: observed %v", observed)
	}

	// Retire fleet-wide: drain first, then delete.
	if code, _ := armChurn(t, client, http.MethodPost, base+"/3/drain", map[string]any{}); code != http.StatusOK {
		t.Fatal("broadcast re-drain failed")
	}
	if code, _ := armChurn(t, client, http.MethodDelete, base+"/3", nil); code != http.StatusOK {
		t.Fatalf("broadcast retire failed")
	}
	for i := 0; i < 3; i++ {
		if n := replicaArmCount(t, f, i, "s0"); n != 3 {
			t.Fatalf("replica %d has %d arms after broadcast retire, want 3", i, n)
		}
	}
	// And the fleet still syncs and serves afterwards.
	if err := f.Replica(0).Service().ObserveDirectOutcome("s0", 2, []float64{1, 1}, serve.Outcome{Runtime: 9}); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncAll(); err != nil {
		t.Fatal(err)
	}
	var tk struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, client, f.RouterURL()+"/v1/streams/s0/recommend",
		map[string]any{"features": []float64{2, 2}}, &tk); code != http.StatusOK || tk.ID == "" {
		t.Fatalf("recommend after retire: status %d, ticket %q", code, tk.ID)
	}
}

// TestRouterArmBroadcastPartialFailure: a broadcast with a dead member
// in the ring answers 502 with per-member detail; after the monitor
// drops the member the retry succeeds, and a restarted member
// bootstraps the churned arm set back from a peer snapshot.
func TestRouterArmBroadcastPartialFailure(t *testing.T) {
	f := manualFleet(t, 3)
	client := &http.Client{Timeout: 5 * time.Second}
	createStreams(t, client, f.RouterURL(), 1, 2)
	base := f.RouterURL() + "/v1/streams/s0/arms"

	if err := f.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	// The ring still lists the dead member: the broadcast reports the
	// partial application instead of pretending fleet-wide success.
	code, out := armChurn(t, client, http.MethodPost, base, map[string]any{"hardware_spec": "H3=8x64"})
	if code != http.StatusBadGateway {
		t.Fatalf("broadcast with dead member: status %d (%v), want 502", code, out)
	}

	f.Router().CheckNow()
	// The survivors already applied the add, so the retry answers 422
	// there — re-issuing with a fresh name converges the live members.
	code, out = armChurn(t, client, http.MethodPost, base, map[string]any{"hardware_spec": "H4=6x48"})
	if code != http.StatusCreated {
		t.Fatalf("broadcast after member drop: status %d (%v)", code, out)
	}
	for _, i := range []int{0, 2} {
		if n := replicaArmCount(t, f, i, "s0"); n != 5 {
			t.Fatalf("replica %d has %d arms, want 5 (H3 partial + H4)", i, n)
		}
	}

	// A restarted member bootstraps from a peer snapshot, which carries
	// the arm set — it rejoins with all five arms without replaying the
	// churn.
	if err := f.Restart(1); err != nil {
		t.Fatal(err)
	}
	f.Router().CheckNow()
	if n := replicaArmCount(t, f, 1, "s0"); n != 5 {
		t.Fatalf("restarted replica has %d arms, want the bootstrapped 5", n)
	}
}

package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"banditware/internal/serve"
)

// RouterOptions configure a fleet router.
type RouterOptions struct {
	// PollInterval paces the membership monitor (0 = default).
	PollInterval time.Duration
}

// Router fronts a replica fleet with one serving endpoint. Streams are
// partitioned by consistent hashing over the ready members: every
// stream-scoped route proxies to the stream's owner, ticket redemption
// (POST /v1/observe) routes by the stream name embedded in the ticket
// ID, and stream creation/deletion — like arm-set churn (add, drain,
// promote, retire) — broadcasts so every replica serves the same stream
// set with the same arm count. When a replica stops answering its readiness
// probe the ring is rebuilt without it and its streams rebalance onto
// the survivors — which already hold the stream's model via delta
// replication.
//
// Router-specific routes:
//
//	GET /v1/router/replicas   per-replica health + proxy counters
//	GET /v1/healthz           router liveness
//	GET /v1/readyz            503 until at least one replica is ready
type Router struct {
	monitor *Monitor

	mu   sync.RWMutex
	ring *Ring
	// members holds each member's forwarder and counters; the map is
	// fixed at construction.
	members map[string]*memberProxy

	handler http.Handler
}

type memberProxy struct {
	fwd      *forwarder
	requests atomic.Uint64
	errors   atomic.Uint64
}

// ReplicaInfo is one member's row in GET /v1/router/replicas.
type ReplicaInfo struct {
	MemberState
	// Requests counts proxied requests (broadcasts included), Errors the
	// ones that failed at the transport (the backend was unreachable).
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
}

// NewRouter builds a router over the replica base URLs. Call Start to
// begin health polling (the ring starts with every member assumed
// ready; the first probe corrects it), Stop to end it.
func NewRouter(members []string, opts RouterOptions) (*Router, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("dist: router needs at least one member")
	}
	rt := &Router{members: make(map[string]*memberProxy, len(members))}
	for _, m := range members {
		u, err := url.Parse(m)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("dist: member %q is not an absolute URL", m)
		}
		if u.Scheme != "http" {
			return nil, fmt.Errorf("dist: member %q: the router forwards plain http only", m)
		}
		rt.members[m] = &memberProxy{fwd: newForwarder(u)}
	}
	rt.monitor = NewMonitor(members, opts.PollInterval)
	rt.monitor.OnChange = func(ready []string) { rt.setRing(ready) }
	rt.setRing(members) // optimistic until the first probe
	rt.handler = rt.buildHandler()
	return rt, nil
}

// Start begins membership polling. Stop ends it and closes the idle
// member connections; a request after Stop dials afresh.
func (rt *Router) Start() { rt.monitor.Start() }
func (rt *Router) Stop() {
	rt.monitor.Stop()
	for _, mp := range rt.members {
		mp.fwd.closeIdle()
	}
}

// CheckNow forces one synchronous membership probe and returns the
// resulting ready set (tests and chaos drills use it to converge
// without waiting out the poll interval).
func (rt *Router) CheckNow() []string { return rt.monitor.CheckNow() }

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler { return rt.handler }

func (rt *Router) setRing(members []string) {
	ring := NewRing(members)
	rt.mu.Lock()
	rt.ring = ring
	rt.mu.Unlock()
}

func (rt *Router) currentRing() *Ring {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring
}

// forward proxies the request to member. body, when non-nil, is the
// request body the router has already read; otherwise r.Body streams.
// A transport failure answers 502, counts against the member and
// re-probes the fleet at once: it is a strong down signal, and the
// ring should converge faster than the poll interval.
func (rt *Router) forward(member string, w http.ResponseWriter, r *http.Request, body []byte) {
	mp := rt.members[member]
	mp.requests.Add(1)
	err := mp.fwd.forward(w, r, body)
	switch {
	case err == nil:
	case errors.As(err, new(bodyReadError)):
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	case r.Context().Err() != nil:
		// The client went away; the member did not fail.
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
	default:
		mp.errors.Add(1)
		go rt.monitor.CheckNow()
		writeJSON(w, http.StatusBadGateway, map[string]string{
			"error": fmt.Sprintf("replica %s unreachable: %v", member, err),
		})
	}
}

// ownerOf picks the ready owner for a stream key, or "" when the fleet
// has no ready member.
func (rt *Router) ownerOf(stream string) string {
	return rt.currentRing().Owner(stream)
}

func (rt *Router) buildHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok", "replicas": len(rt.members), "ready": len(rt.currentRing().Members()),
		})
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if len(rt.currentRing().Members()) == 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no ready replicas"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /v1/router/replicas", func(w http.ResponseWriter, r *http.Request) {
		rt.handleReplicas(w)
	})

	// Stream creation and deletion fan out to every replica so the
	// whole fleet serves (and replicates) the same stream set.
	mux.HandleFunc("POST /v1/streams", func(w http.ResponseWriter, r *http.Request) {
		rt.broadcast(w, r)
	})
	mux.HandleFunc("DELETE /v1/streams/{name}", func(w http.ResponseWriter, r *http.Request) {
		rt.broadcast(w, r)
	})

	// Arm-set changes fan out too: replicated delta merges require every
	// member to hold the same arm count, so the fleet churns in step. A
	// partial broadcast answers 502 and is safe to re-issue (duplicate
	// adds answer 422 on the members that already applied them, repeated
	// drains 422, repeated retires 404 — the operator resolves from the
	// per-member detail). Listing (GET .../arms) stays owner-routed.
	mux.HandleFunc("POST /v1/streams/{name}/arms", func(w http.ResponseWriter, r *http.Request) {
		rt.broadcast(w, r)
	})
	mux.HandleFunc("POST /v1/streams/{name}/arms/{arm}/drain", func(w http.ResponseWriter, r *http.Request) {
		rt.broadcast(w, r)
	})
	mux.HandleFunc("POST /v1/streams/{name}/arms/{arm}/promote", func(w http.ResponseWriter, r *http.Request) {
		rt.broadcast(w, r)
	})
	mux.HandleFunc("DELETE /v1/streams/{name}/arms/{arm}", func(w http.ResponseWriter, r *http.Request) {
		rt.broadcast(w, r)
	})

	// Ticket-only redemption: the stream (and so the owner) is inside
	// the ticket ID.
	mux.HandleFunc("POST /v1/observe", func(w http.ResponseWriter, r *http.Request) {
		rt.handleObserve(w, r)
	})

	// Stream-scoped routes proxy to the stream's owner; everything else
	// (stats, stream listing) goes to any ready replica.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown route"})
			return
		}
		var member string
		if stream, ok := streamFromPath(r.URL.Path); ok {
			member = rt.ownerOf(stream)
		} else {
			member = rt.anyMember(r.URL.Path)
		}
		if member == "" {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no ready replicas"})
			return
		}
		rt.forward(member, w, r, nil)
	})
	return mux
}

// streamFromPath extracts the stream name from a /v1/streams/{name}...
// path ("" , false for non-stream routes).
func streamFromPath(path string) (string, bool) {
	rest, ok := strings.CutPrefix(path, "/v1/streams/")
	if !ok || rest == "" {
		return "", false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// anyMember deterministically spreads non-stream reads over the ready
// set (keyed by path, so repeated polls of one endpoint reach the same
// replica and see one consistent view).
func (rt *Router) anyMember(path string) string {
	return rt.currentRing().Owner("route:" + path)
}

func (rt *Router) handleReplicas(w http.ResponseWriter) {
	states := rt.monitor.Snapshot()
	out := make([]ReplicaInfo, len(states))
	for i, st := range states {
		out[i] = ReplicaInfo{MemberState: st}
		if mp := rt.members[st.URL]; mp != nil {
			out[i].Requests = mp.requests.Load()
			out[i].Errors = mp.errors.Load()
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"replicas": out})
}

// handleObserve routes a ticket redemption to the owning replica: the
// ticket ID's stream prefix is the routing key, so the redemption
// lands on the replica that issued the ticket (as long as the ring has
// not moved the stream — after a rebalance the new owner answers 404
// and the client re-recommends, the documented degraded mode).
func (rt *Router) handleObserve(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, 1<<20)
	if !ok {
		return
	}
	var req struct {
		Ticket string `json:"ticket"`
	}
	// Tolerant decode: the body carries the observation too; the
	// backend re-validates everything.
	if err := json.Unmarshal(body, &req); err != nil || req.Ticket == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": "observe through the router needs a ticket (direct observes are stream-scoped: POST /v1/streams/{name}/observe)",
		})
		return
	}
	stream, _, err := serve.ParseTicketID(req.Ticket)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	member := rt.ownerOf(stream)
	if member == "" {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no ready replicas"})
		return
	}
	rt.forward(member, w, r, body)
}

// readBody reads r's body up to limit bytes. It answers 413 for a body
// over the limit and 400 for one that cannot be read, and reports
// whether the body was read.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return nil, false
	}
	return body, true
}

// broadcast fans a request out to every ready replica and reports
// per-member results: 200 with the first member's response body when
// all succeed, 502 with the per-member error map otherwise (a partial
// broadcast is a fleet inconsistency the operator must resolve —
// re-issuing the request is safe, creation conflicts answer 409 and
// deletion misses 404).
func (rt *Router) broadcast(w http.ResponseWriter, r *http.Request) {
	members := rt.currentRing().Members()
	if len(members) == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no ready replicas"})
		return
	}
	body, ok := readBody(w, r, 16<<20)
	if !ok {
		return
	}
	sort.Strings(members)
	type result struct {
		status int
		body   []byte
		err    error
	}
	results := make(map[string]result, len(members))
	for _, m := range members {
		mp := rt.members[m]
		mp.requests.Add(1)
		req, err := http.NewRequestWithContext(r.Context(), r.Method, m+r.URL.Path, bytes.NewReader(body))
		if err != nil {
			results[m] = result{err: err}
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rt.monitorClient().Do(req)
		if err != nil {
			mp.errors.Add(1)
			results[m] = result{err: err}
			continue
		}
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		results[m] = result{status: resp.StatusCode, body: b}
	}
	allOK := true
	for _, res := range results {
		if res.err != nil || res.status < 200 || res.status >= 300 {
			allOK = false
		}
	}
	if allOK {
		first := results[members[0]]
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(first.status)
		w.Write(first.body)
		return
	}
	detail := make(map[string]string, len(results))
	for m, res := range results {
		switch {
		case res.err != nil:
			detail[m] = res.err.Error()
		case res.status < 200 || res.status >= 300:
			detail[m] = fmt.Sprintf("%d: %s", res.status, bytes.TrimSpace(res.body))
		default:
			detail[m] = "ok"
		}
	}
	go rt.monitor.CheckNow()
	writeJSON(w, http.StatusBadGateway, map[string]any{
		"error":    "broadcast did not reach every replica",
		"replicas": detail,
	})
}

func (rt *Router) monitorClient() *http.Client { return rt.monitor.client }

package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"banditware/internal/serve"
)

// defaultPollInterval is how often the router re-probes its members
// when the caller does not say.
const defaultPollInterval = 2 * time.Second

// probeTimeout bounds a readiness probe: a probe that takes seconds is a
// failure in itself.
const probeTimeout = 2 * time.Second

// RouterOptions configure a fleet router.
type RouterOptions struct {
	// PollInterval paces the readiness probes (0 = default).
	PollInterval time.Duration
}

// Router fronts a replica fleet with one serving endpoint. Streams are
// partitioned by consistent hashing over the ready members: every
// stream-scoped route proxies to the stream's owner, ticket redemption
// (POST /v1/observe) routes by the stream name embedded in the ticket
// ID, and stream creation/deletion — like arm-set churn (add, drain,
// promote, retire) — broadcasts so every replica serves the same stream
// set with the same arm count. The router polls each member's
// GET /v1/readyz; when a replica stops answering 200 the ring is
// rebuilt without it and its streams rebalance onto the survivors —
// which already hold the stream's model via delta replication.
//
// Router-specific routes:
//
//	GET /v1/router/replicas   per-replica health + proxy counters
//	GET /v1/healthz           router liveness
//	GET /v1/readyz            503 until at least one replica is ready
type Router struct {
	interval time.Duration
	// members maps each member URL to its record, and order lists the
	// records sorted by URL; both are fixed at construction.
	members map[string]*member
	order   []*member

	// probeMu orders probe rounds: each applies its verdicts in the
	// order the rounds took the lock, never interleaved.
	probeMu sync.Mutex

	mu   sync.RWMutex // guards ring, every member's state, stop and done
	ring *Ring
	stop chan struct{}
	done chan struct{}

	handler http.Handler
}

// member is one replica as the router knows it: the forwarder that
// carries its proxied requests, broadcasts and readiness probes, the
// proxy counters, and the last probe's verdict.
type member struct {
	fwd      *forwarder
	requests atomic.Uint64
	errors   atomic.Uint64
	state    MemberState // guarded by Router.mu
}

// MemberState is one member's last observed health.
type MemberState struct {
	URL string `json:"url"`
	// Ready mirrors the member's GET /v1/readyz: true only when the
	// probe returned 200 (alive and not mid-restore).
	Ready bool `json:"ready"`
	// Error is the last probe failure ("" when Ready; an HTTP status or
	// transport error otherwise).
	Error       string    `json:"error,omitempty"`
	LastChecked time.Time `json:"last_checked"`
}

// ReplicaInfo is one member's row in GET /v1/router/replicas.
type ReplicaInfo struct {
	MemberState
	// Requests counts proxied requests (broadcasts included, readiness
	// probes not), Errors the ones that failed at the transport (the
	// backend was unreachable or its answer broke off).
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
	rt := &Router{interval: opts.PollInterval, members: make(map[string]*member, len(members))}
	if rt.interval <= 0 {
		rt.interval = defaultPollInterval
	}
	for _, m := range members {
		u, err := url.Parse(m)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("dist: member %q is not an absolute URL", m)
		}
		if u.Scheme != "http" {
			return nil, fmt.Errorf("dist: member %q: the router forwards plain http only", m)
		}
		if rt.members[m] == nil {
			mp := &member{fwd: newForwarder(u), state: MemberState{URL: m}}
			rt.members[m] = mp
			rt.order = append(rt.order, mp)
		}
	}
	sort.Slice(rt.order, func(i, j int) bool { return rt.order[i].state.URL < rt.order[j].state.URL })
	rt.ring = NewRing(members) // optimistic until the first probe
	rt.handler = rt.buildHandler()
	return rt, nil
}

// Start begins membership polling: one immediate probe round, then one
// every poll interval. Start after Stop is not supported.
func (rt *Router) Start() {
	rt.mu.Lock()
	if rt.stop != nil {
		rt.mu.Unlock()
		return
	}
	rt.stop, rt.done = make(chan struct{}), make(chan struct{})
	stop, done := rt.stop, rt.done
	rt.mu.Unlock()
	go func() {
		defer close(done)
		rt.CheckNow()
		t := time.NewTicker(rt.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				rt.CheckNow()
			}
		}
	}()
}

// Stop ends polling, waits for the poller to exit and closes the idle
// member connections; a request after Stop dials afresh.
func (rt *Router) Stop() {
	rt.mu.Lock()
	stop, done := rt.stop, rt.done
	rt.stop = nil
	rt.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	for _, mp := range rt.order {
		mp.fwd.closeIdle()
	}
}

// CheckNow probes every member once, synchronously, rebuilds the ring
// over the members that answered ready, and returns that set (sorted).
// Safe from any goroutine: tests and chaos drills use it to converge
// without waiting out the poll interval, and the proxy error path to
// converge faster than it.
func (rt *Router) CheckNow() []string {
	now := time.Now()
	failures := make([]string, len(rt.order))
	var wg sync.WaitGroup
	for i, mp := range rt.order {
		wg.Add(1)
		go func() {
			defer wg.Done()
			failures[i] = mp.probe()
		}()
	}
	rt.probeMu.Lock()
	defer rt.probeMu.Unlock()
	wg.Wait()
	var ready []string
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, mp := range rt.order {
		mp.state.Ready, mp.state.Error, mp.state.LastChecked = failures[i] == "", failures[i], now
		if mp.state.Ready {
			ready = append(ready, mp.state.URL)
		}
	}
	if !slices.Equal(ready, rt.ring.Members()) {
		rt.ring = NewRing(ready)
	}
	return ready
}

// probe asks the member's GET /v1/readyz and returns "" for a 200, or
// the failure: the status line or the transport error. Probes are not
// proxied requests, so they leave the counters alone.
func (mp *member) probe() string {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "/v1/readyz", nil)
	if err != nil {
		return err.Error()
	}
	var resp bufferedResponse
	if err := mp.fwd.forward(&resp, req, nil); err != nil {
		return err.Error()
	}
	if resp.code != http.StatusOK {
		return resp.status()
	}
	return ""
}

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler { return rt.handler }

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
	case errors.As(err, new(cutResponseError)):
		// The status is out; abort so the client sees a broken
		// response rather than a short one that looks whole.
		if r.Context().Value(http.ServerContextKey) != nil {
			panic(http.ErrAbortHandler)
		}
	case errors.As(err, new(bodyReadError)):
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	case r.Context().Err() != nil:
		// The client went away; the member did not fail.
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
	default:
		mp.errors.Add(1)
		go rt.CheckNow()
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
	// partial broadcast answers 502. Re-issuing it applies the change on
	// the members that missed it, while those that already applied it
	// refuse it (duplicate adds and repeated drains 422, repeated
	// retires 404): the re-issue answers 502 with that mix in the
	// per-member detail, from which the operator resolves. Listing
	// (GET .../arms) stays owner-routed.
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
	out := make([]ReplicaInfo, len(rt.order))
	rt.mu.RLock()
	for i, mp := range rt.order {
		out[i] = ReplicaInfo{MemberState: mp.state, Requests: mp.requests.Load(), Errors: mp.errors.Load()}
	}
	rt.mu.RUnlock()
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

// broadcast fans a request out to every ready replica, in URL order,
// over the same forwarders that carry proxied requests. When every
// member answers and they agree — all 2xx, or all the same status — the
// first member's answer passes through; otherwise the router answers
// 502 with the per-member detail: a partial broadcast is a fleet
// inconsistency the operator must resolve. Only a member that could
// not be reached, or whose answer broke off, counts an error and
// triggers a re-probe. The exchanges share one deadline, the router
// server's own write timeout, past which the answer could not be
// written anyway.
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
	ctx, cancel := context.WithTimeout(r.Context(), serve.DefaultWriteTimeout)
	defer cancel()
	fr := r.WithContext(ctx)
	answers := make([]bufferedResponse, len(members))
	errs := make([]error, len(members))
	reached, agree, allOK := true, true, true
	for i, m := range members {
		if errs[i] = ctx.Err(); errs[i] == nil {
			mp := rt.members[m]
			mp.requests.Add(1)
			if errs[i] = mp.fwd.forward(&answers[i], fr, body); errs[i] != nil && r.Context().Err() == nil {
				mp.errors.Add(1)
			}
		}
		reached = reached && errs[i] == nil
		agree = agree && answers[i].code == answers[0].code
		allOK = allOK && answers[i].code/100 == 2
	}
	if err := r.Context().Err(); err != nil {
		// The client went away; no member failed.
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	if reached && (agree || allOK) {
		answers[0].writeTo(w)
		return
	}
	detail := make(map[string]string, len(members))
	for i, m := range members {
		switch a := &answers[i]; {
		case errs[i] != nil:
			detail[m] = errs[i].Error()
		case a.code/100 != 2:
			detail[m] = fmt.Sprintf("%d: %s", a.code, bytes.TrimSpace(a.body.Bytes()))
		default:
			detail[m] = "ok"
		}
	}
	msg := "replicas answered differently"
	if !reached {
		msg = "broadcast did not reach every replica"
		go rt.CheckNow()
	}
	writeJSON(w, http.StatusBadGateway, map[string]any{"error": msg, "replicas": detail})
}

// bufferedResponse is an http.ResponseWriter that keeps a member's
// answer in memory: a broadcast compares the answers before it replies,
// and a readiness probe reads the status.
type bufferedResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header {
	if b.header == nil {
		b.header = make(http.Header)
	}
	return b.header
}

func (b *bufferedResponse) WriteHeader(code int)        { b.code = code }
func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

// status renders the answer's status line, as in "503 Service Unavailable".
func (b *bufferedResponse) status() string {
	return fmt.Sprintf("%d %s", b.code, http.StatusText(b.code))
}

// writeTo sends the kept answer to w.
func (b *bufferedResponse) writeTo(w http.ResponseWriter) {
	h := w.Header()
	for k, vv := range b.header {
		h[k] = vv
	}
	w.WriteHeader(b.code)
	w.Write(b.body.Bytes())
}

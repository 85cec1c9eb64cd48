package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"banditware/internal/core"
	"banditware/internal/schema"
	"banditware/internal/serve"
)

// Decision is the part of a recommendation a load-generator worker
// needs to continue the session: the ticket to redeem and the arm whose
// pre-sampled runtime to report. The in-process target leaves Ticket
// empty and identifies the ticket by (Stream, Seq) instead — the driver
// then redeems through the target's SeqObserver.
type Decision struct {
	Ticket string
	Arm    int
	Stream string
	Seq    uint64
}

// SeqObserver is implemented by targets whose decisions carry a
// (stream, seq) ticket identity instead of an ID string; the driver
// prefers it whenever Decision.Ticket is empty.
type SeqObserver interface {
	ObserveSeq(stream string, seq uint64, runtime float64) error
}

// Target abstracts the system under test. Implementations must be safe
// for concurrent use by many workers.
type Target interface {
	// Name identifies the target in reports ("inproc", "http").
	Name() string
	// Setup creates the trace's stream population on the target.
	Setup(tr *Trace) error
	// Recommend issues one recommendation for a named context (the
	// schema'd serving path).
	Recommend(stream string, op *Op, tr *Trace) (Decision, error)
	// RecommendRaw issues one recommendation for a raw feature vector.
	RecommendRaw(stream string, op *Op) (Decision, error)
	// Observe redeems a ticket with a measured runtime.
	Observe(ticket string, runtime float64) error
	// Close releases any resources (sockets, servers).
	Close() error
}

// streamOptions derives the per-stream engine options: a deterministic
// per-stream seed so replays are reproducible, everything else the
// Algorithm 1 defaults.
func streamOptions(traceSeed uint64, streamIdx int) core.Options {
	return core.Options{Seed: traceSeed + uint64(streamIdx)*2654435761 + 1}
}

// InProc targets a banditware Service in the same process — the
// serving layer with zero transport cost, isolating engine + registry +
// ledger latency. It drives the zero-allocation API: RecommendInto /
// RecommendCtxInto with pooled caller-owned tickets and pooled
// named-context maps, and seq-keyed observes that never render or parse
// a ticket-ID string.
type InProc struct {
	Service *serve.Service
	// tickets holds *serve.Ticket values workers borrow for the duration
	// of one recommend; the Predicted backing array survives recycling.
	tickets sync.Pool
	// ctxs holds *schema.Context values with reusable Numeric maps,
	// cleared and refilled per request.
	ctxs sync.Pool
}

// NewInProc builds an in-process target around a fresh Service.
func NewInProc() *InProc {
	t := &InProc{Service: serve.NewService(serve.ServiceOptions{})}
	t.tickets.New = func() any { return new(serve.Ticket) }
	t.ctxs.New = func() any {
		return &schema.Context{Numeric: make(map[string]float64, 16)}
	}
	return t
}

func (t *InProc) Name() string { return "inproc" }

func (t *InProc) Setup(tr *Trace) error {
	for i, s := range tr.Streams {
		cfg := serve.StreamConfig{
			Hardware: tr.Hardware,
			Schema:   tr.Schema.Clone(),
			Options:  streamOptions(tr.Config.Seed, i),
		}
		if err := t.Service.CreateStream(s.Name, cfg); err != nil {
			return fmt.Errorf("loadgen: create stream %s: %w", s.Name, err)
		}
	}
	return nil
}

func (t *InProc) Recommend(stream string, op *Op, tr *Trace) (Decision, error) {
	ctx := t.ctxs.Get().(*schema.Context)
	clear(ctx.Numeric)
	for i, n := range tr.FeatureNames {
		ctx.Numeric[n] = op.Features[i]
	}
	tk := t.tickets.Get().(*serve.Ticket)
	err := t.Service.RecommendCtxInto(stream, *ctx, tk)
	d := Decision{Stream: stream, Arm: tk.Arm, Seq: tk.Seq}
	t.tickets.Put(tk)
	t.ctxs.Put(ctx)
	if err != nil {
		return Decision{}, err
	}
	return d, nil
}

func (t *InProc) RecommendRaw(stream string, op *Op) (Decision, error) {
	tk := t.tickets.Get().(*serve.Ticket)
	err := t.Service.RecommendInto(stream, op.Features, tk)
	d := Decision{Stream: stream, Arm: tk.Arm, Seq: tk.Seq}
	t.tickets.Put(tk)
	if err != nil {
		return Decision{}, err
	}
	return d, nil
}

// Observe satisfies the Target interface for tickets that do carry an
// ID (none issued by this target do); the driver routes this target's
// observes through ObserveSeq.
func (t *InProc) Observe(ticket string, runtime float64) error {
	return t.Service.Observe(ticket, runtime)
}

// ObserveSeq redeems a ticket by (stream, seq) — the allocation-free
// observe the driver prefers when a decision carries no ID string.
func (t *InProc) ObserveSeq(stream string, seq uint64, runtime float64) error {
	return t.Service.ObserveSeq(stream, seq, runtime)
}

func (t *InProc) Close() error { return nil }

// HTTP targets a serving front-end over a real socket, measuring the
// full request path: JSON encode, TCP, handler dispatch, schema decode,
// engine, JSON response.
type HTTP struct {
	base   string
	client *http.Client
	// server is non-nil when this target owns the listener (self-hosted
	// mode) and must shut it down on Close.
	server *http.Server
	ln     net.Listener
}

// NewHTTP targets an already-running serving front-end at base
// (e.g. "http://127.0.0.1:8080"). Setup creates the trace's streams
// over the API, so the server must be empty of conflicting streams.
func NewHTTP(base string) *HTTP {
	return &HTTP{base: base, client: newLoadClient()}
}

// NewSelfHTTP starts a hardened HTTP server over a fresh in-process
// Service on a real loopback socket and targets it — the standard way
// to measure the HTTP path without an external process.
func NewSelfHTTP() (*HTTP, error) {
	svc := serve.NewService(serve.ServiceOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	server := serve.NewServer(serve.NewHandler(svc))
	go server.Serve(ln)
	return &HTTP{
		base:   "http://" + ln.Addr().String(),
		client: newLoadClient(),
		server: server,
		ln:     ln,
	}, nil
}

// newLoadClient builds an http.Client tuned for load generation:
// generous per-host connection pool so keep-alive sockets, not the
// client, set the concurrency ceiling.
func newLoadClient() *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 1024,
		IdleConnTimeout:     90 * time.Second,
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

func (t *HTTP) Name() string { return "http" }

func (t *HTTP) Setup(tr *Trace) error {
	for i, s := range tr.Streams {
		opts := streamOptions(tr.Config.Seed, i)
		body := map[string]any{
			"name":     s.Name,
			"hardware": hardwareWire(tr),
			"schema":   tr.Schema,
			"seed":     opts.Seed,
		}
		if err := t.post("/v1/streams", body, nil); err != nil {
			return fmt.Errorf("loadgen: create stream %s: %w", s.Name, err)
		}
	}
	return nil
}

// hardwareWire renders the trace's hardware set in the create route's
// structured form.
func hardwareWire(tr *Trace) []map[string]any {
	out := make([]map[string]any, len(tr.Hardware))
	for i, h := range tr.Hardware {
		out[i] = map[string]any{
			"name":      h.Name,
			"cpus":      h.CPUs,
			"memory_gb": h.MemoryGB,
			"gpus":      h.GPUs,
		}
	}
	return out
}

// recommendBody is the reusable wire form of one recommend request.
type recommendBody struct {
	Features []float64          `json:"features,omitempty"`
	Context  map[string]float64 `json:"context,omitempty"`
}

// ticketWire is the slice of the ticket response the driver needs.
type ticketWire struct {
	ID  string `json:"id"`
	Arm int    `json:"arm"`
}

func (t *HTTP) Recommend(stream string, op *Op, tr *Trace) (Decision, error) {
	ctx := make(map[string]float64, len(tr.FeatureNames))
	for i, n := range tr.FeatureNames {
		ctx[n] = op.Features[i]
	}
	var tk ticketWire
	if err := t.post("/v1/streams/"+stream+"/recommend", recommendBody{Context: ctx}, &tk); err != nil {
		return Decision{}, err
	}
	return Decision{Ticket: tk.ID, Arm: tk.Arm}, nil
}

func (t *HTTP) RecommendRaw(stream string, op *Op) (Decision, error) {
	var tk ticketWire
	if err := t.post("/v1/streams/"+stream+"/recommend", recommendBody{Features: op.Features}, &tk); err != nil {
		return Decision{}, err
	}
	return Decision{Ticket: tk.ID, Arm: tk.Arm}, nil
}

type observeBody struct {
	Ticket  string  `json:"ticket"`
	Runtime float64 `json:"runtime"`
}

func (t *HTTP) Observe(ticket string, runtime float64) error {
	return t.post("/v1/observe", observeBody{Ticket: ticket, Runtime: runtime}, nil)
}

// post sends one JSON request and decodes the response into out (when
// non-nil). Any non-2xx status is an error carrying the server's
// error body.
func (t *HTTP) post(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := t.client.Post(t.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("loadgen: %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	// Drain so the connection returns to the keep-alive pool.
	io.Copy(io.Discard, resp.Body)
	return nil
}

// del sends one DELETE request; any non-2xx status is an error
// carrying the server's error body.
func (t *HTTP) del(path string) error {
	req, err := http.NewRequest(http.MethodDelete, t.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("loadgen: %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

func (t *HTTP) Close() error {
	t.client.CloseIdleConnections()
	if t.server != nil {
		return t.server.Close()
	}
	return nil
}

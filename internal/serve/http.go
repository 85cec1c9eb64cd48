package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"banditware/internal/core"
	"banditware/internal/hardware"
	"banditware/internal/schema"
)

// NewHandler returns the HTTP/JSON front-end for a service (see
// docs/API.md for the full request/response reference):
//
//	GET    /v1/healthz                          liveness probe
//	GET    /v1/readyz                           readiness probe (503 while restoring)
//	GET    /v1/stats                            service-wide stats
//	GET    /v1/streams                          list streams
//	POST   /v1/streams                          create a stream (policy-typed)
//	GET    /v1/streams/{name}                   inspect one stream (+models)
//	DELETE /v1/streams/{name}                   remove a stream
//	POST   /v1/streams/{name}/recommend         issue one decision ticket
//	POST   /v1/streams/{name}/recommend/batch   issue many tickets atomically
//	POST   /v1/streams/{name}/observe           redeem a ticket / direct observe
//	POST   /v1/streams/{name}/observe/batch     redeem many tickets
//	POST   /v1/observe                          redeem a ticket (stream from ID)
//	GET    /v1/streams/{name}/shadows           shadow evaluation counters
//	POST   /v1/streams/{name}/shadows           attach a shadow policy
//	DELETE /v1/streams/{name}/shadows/{shadow}  detach a shadow policy
//	GET    /v1/streams/{name}/drift             drift-monitoring state
//	GET    /v1/streams/{name}/arms              list arms with lifecycle status
//	POST   /v1/streams/{name}/arms              add an arm (hardware + warm start)
//	POST   /v1/streams/{name}/arms/{arm}/drain  drain an arm out of live serving
//	POST   /v1/streams/{name}/arms/{arm}/promote promote a trial/draining arm
//	DELETE /v1/streams/{name}/arms/{arm}        retire a drained/trial arm
//
// Observe routes accept either the scalar {"runtime": ...} form or a
// structured {"outcome": {"runtime": ..., "success": ..., "metrics":
// {...}}} body; stream creation and shadow attachment accept a
// "reward" spec (bare string or object) selecting the stream's reward
// function, and stream creation an "adapt" spec (bare mode string or
// object) selecting its non-stationarity adaptation and on-drift
// response.
//
// All bodies are JSON. Errors are {"error": "..."} with conventional
// status codes (404 unknown stream/ticket/shadow/arm, 410 expired
// ticket, 409 duplicate stream/shadow, 422 for a context rejected by
// the stream's feature schema — with a per-field "fields" list — a
// malformed outcome (negative runtime, unknown metric), an invalid arm
// request, or a rejected arm lifecycle transition, and 400 for other
// bad input).
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, statusResponse{Status: "ok"})
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		// Distinct from healthz: the process is alive but should not
		// take traffic while a snapshot import or delta merge runs.
		if !svc.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, statusResponse{Status: "restoring"})
			return
		}
		writeJSON(w, http.StatusOK, statusResponse{Status: "ready"})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Stats())
	})
	mux.HandleFunc("GET /v1/streams", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Stats().Streams)
	})
	mux.HandleFunc("POST /v1/streams", func(w http.ResponseWriter, r *http.Request) {
		handleCreateStream(svc, w, r)
	})
	mux.HandleFunc("GET /v1/streams/{name}", func(w http.ResponseWriter, r *http.Request) {
		handleInspectStream(svc, w, r)
	})
	mux.HandleFunc("DELETE /v1/streams/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := svc.RemoveStream(r.PathValue("name")); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, removedResponse{Removed: r.PathValue("name")})
	})
	mux.HandleFunc("POST /v1/streams/{name}/recommend", func(w http.ResponseWriter, r *http.Request) {
		handleRecommend(svc, w, r)
	})
	mux.HandleFunc("POST /v1/streams/{name}/recommend/batch", func(w http.ResponseWriter, r *http.Request) {
		handleRecommendBatch(svc, w, r)
	})
	mux.HandleFunc("POST /v1/streams/{name}/observe", func(w http.ResponseWriter, r *http.Request) {
		handleObserve(svc, w, r, r.PathValue("name"))
	})
	mux.HandleFunc("POST /v1/streams/{name}/observe/batch", func(w http.ResponseWriter, r *http.Request) {
		handleObserveBatch(svc, w, r)
	})
	mux.HandleFunc("POST /v1/observe", func(w http.ResponseWriter, r *http.Request) {
		handleObserve(svc, w, r, "")
	})
	mux.HandleFunc("GET /v1/streams/{name}/shadows", func(w http.ResponseWriter, r *http.Request) {
		handleListShadows(svc, w, r)
	})
	mux.HandleFunc("POST /v1/streams/{name}/shadows", func(w http.ResponseWriter, r *http.Request) {
		handleAttachShadow(svc, w, r)
	})
	mux.HandleFunc("DELETE /v1/streams/{name}/shadows/{shadow}", func(w http.ResponseWriter, r *http.Request) {
		if err := svc.DetachShadow(r.PathValue("name"), r.PathValue("shadow")); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, removedResponse{Removed: r.PathValue("shadow")})
	})
	mux.HandleFunc("GET /v1/streams/{name}/drift", func(w http.ResponseWriter, r *http.Request) {
		info, err := svc.Drift(r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("GET /v1/streams/{name}/arms", func(w http.ResponseWriter, r *http.Request) {
		arms, err := svc.Arms(r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, armsResponse{Arms: arms, Stream: r.PathValue("name")})
	})
	mux.HandleFunc("POST /v1/streams/{name}/arms", func(w http.ResponseWriter, r *http.Request) {
		handleAddArm(svc, w, r)
	})
	mux.HandleFunc("POST /v1/streams/{name}/arms/{arm}/drain", func(w http.ResponseWriter, r *http.Request) {
		handleArmLifecycle(svc, w, r, svc.DrainArm)
	})
	mux.HandleFunc("POST /v1/streams/{name}/arms/{arm}/promote", func(w http.ResponseWriter, r *http.Request) {
		handleArmLifecycle(svc, w, r, svc.PromoteArm)
	})
	mux.HandleFunc("DELETE /v1/streams/{name}/arms/{arm}", func(w http.ResponseWriter, r *http.Request) {
		handleArmLifecycle(svc, w, r, svc.RetireArm)
	})
	return mux
}

// Typed response envelopes. Every response body is a struct (not an
// ad-hoc map): the shape is greppable, the encoder skips the
// map-iteration/sort path, and a field rename is a compile-time event.
// Field order matches the sorted-key order maps used to produce, so
// response bytes are unchanged.
type statusResponse struct {
	Status string `json:"status"`
}

type removedResponse struct {
	Removed string `json:"removed"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// schemaErrorResponse is the 422 schema-violation body: the joined
// message plus the per-field violation list.
type schemaErrorResponse struct {
	Error  string               `json:"error"`
	Fields []*schema.FieldError `json:"fields"`
}

type armsResponse struct {
	Arms   []ArmInfo `json:"arms"`
	Stream string    `json:"stream"`
}

type armAddedResponse struct {
	Arm    int       `json:"arm"`
	Arms   []ArmInfo `json:"arms"`
	Stream string    `json:"stream"`
}

type shadowsResponse struct {
	Shadows []ShadowInfo `json:"shadows"`
	Stream  string       `json:"stream"`
}

type ticketsResponse struct {
	Tickets []Ticket `json:"tickets"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError maps service errors onto HTTP status codes.
func writeError(w http.ResponseWriter, err error) {
	if errors.Is(err, schema.ErrSchemaViolation) {
		// A context the stream's feature schema rejected: 422 with the
		// per-field violation list so clients can fix each field.
		writeJSON(w, http.StatusUnprocessableEntity, schemaErrorResponse{
			Error:  err.Error(),
			Fields: schemaFieldErrors(err),
		})
		return
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrStreamNotFound), errors.Is(err, ErrTicketNotFound),
		errors.Is(err, ErrShadowNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrTicketExpired):
		code = http.StatusGone
	case errors.Is(err, ErrStreamExists), errors.Is(err, ErrShadowExists):
		code = http.StatusConflict
	case errors.Is(err, ErrBadOutcome):
		// A semantically invalid observation (negative runtime, unknown
		// metric): the request parsed fine, so 422 like schema
		// violations. The ticket, if any, was not redeemed.
		code = http.StatusUnprocessableEntity
	case errors.Is(err, ErrArmNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrArmLifecycle), errors.Is(err, ErrBadArmRequest):
		// The request parsed fine but is semantically invalid (bad warm
		// mode, duplicate hardware name) or the arm's lifecycle state
		// forbids the transition: 422 like other semantic rejections.
		code = http.StatusUnprocessableEntity
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// schemaFieldErrors digs the per-field violations out of a (possibly
// wrapped) schema validation error. The ValidationError is found
// through any fmt.Errorf chain, and flattenJoined splits it into its
// field-level parts.
func schemaFieldErrors(err error) []*schema.FieldError {
	fields := []*schema.FieldError{}
	var v *schema.ValidationError
	if errors.As(err, &v) {
		err = v
	}
	for _, e := range flattenJoined(err) {
		var fe *schema.FieldError
		if errors.As(e, &fe) {
			fields = append(fields, fe)
		}
	}
	return fields
}

// maxBodyBytes bounds request bodies (a batch of 10k 64-feature
// observations fits with room to spare) so one oversized POST cannot
// exhaust server memory.
const maxBodyBytes = 16 << 20

// decodeJSON decodes one JSON document into v, refusing unknown fields.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("malformed request body: %w", err)
	}
	return nil
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, maxBodyBytes), v); err != nil {
		writeError(w, err)
		return false
	}
	return true
}

// hardwareDTO is the wire form of one hardware configuration.
type hardwareDTO struct {
	Name     string  `json:"name,omitempty"`
	CPUs     int     `json:"cpus"`
	MemoryGB float64 `json:"memory_gb"`
	GPUs     int     `json:"gpus,omitempty"`
}

type createStreamRequest struct {
	Name string `json:"name"`
	// Hardware is the arm set as structured objects; HardwareSpec is the
	// CLI string form ("H0=2x16;H1=3x24"). Exactly one must be given.
	Hardware     []hardwareDTO `json:"hardware,omitempty"`
	HardwareSpec string        `json:"hardware_spec,omitempty"`
	Dim          int           `json:"dim"`

	// Schema optionally declares the stream's named feature layout;
	// when given, dim is derived from it (and must be 0 or match) and
	// recommend/observe accept {"context": {...}} payloads.
	Schema *schema.Schema `json:"schema,omitempty"`

	// Policy selects the stream's decision policy — a bare type string
	// ("linucb") or an object ({"type": "linucb", "beta": 2}). Absent
	// means Algorithm 1 parameterised by the option fields below.
	Policy *PolicySpec `json:"policy,omitempty"`
	// Reward selects the stream's reward function — a bare type string
	// ("cost_weighted") or an object ({"type": "cost_weighted",
	// "lambda": 0.5}). Absent means the runtime reward.
	Reward *RewardSpec `json:"reward,omitempty"`
	// Adapt selects the stream's non-stationarity adaptation — a bare
	// mode string ("forgetting") or an object ({"mode": "forgetting",
	// "factor": 0.95, "on_drift": "reset"}). Absent means mode "none"
	// with observe-only drift detection.
	Adapt *AdaptSpec `json:"adapt,omitempty"`
	// Shadows are shadow policies to attach at creation time.
	Shadows []ShadowConfig `json:"shadows,omitempty"`

	// Algorithm 1 options; zero values select the paper's defaults.
	// Ignored (except seed, which also feeds non-Algorithm 1 policies)
	// when policy selects another type. Epsilon0 is a pointer so an
	// explicit 0 (pure exploitation) is distinguishable from "unset".
	Alpha            float64  `json:"alpha,omitempty"`
	Epsilon0         *float64 `json:"epsilon0,omitempty"`
	MinEpsilon       float64  `json:"min_epsilon,omitempty"`
	ToleranceRatio   float64  `json:"tolerance_ratio,omitempty"`
	ToleranceSeconds float64  `json:"tolerance_seconds,omitempty"`
	Seed             uint64   `json:"seed,omitempty"`

	// Ledger overrides (0 = service defaults).
	MaxPending       int     `json:"max_pending,omitempty"`
	TicketTTLSeconds float64 `json:"ticket_ttl_seconds,omitempty"`
}

// ParseCreateRequest decodes one create document, the body of POST
// /v1/streams (see docs/API.md), into the stream's name and config. It
// refuses unknown fields and maps the document's conveniences: hardware
// as objects or as a hardware_spec string, an explicit epsilon0 of 0,
// the stream seed for a policy and shadows that set none, and
// ticket_ttl_seconds, which must be a non-negative Duration. The config
// is checked when CreateStream builds it.
func ParseCreateRequest(r io.Reader) (string, StreamConfig, error) {
	var req createStreamRequest
	if err := decodeJSON(r, &req); err != nil {
		return "", StreamConfig{}, err
	}
	ttl := req.TicketTTLSeconds * float64(time.Second)
	if ttl < 0 || ttl >= math.MaxInt64 {
		return "", StreamConfig{}, fmt.Errorf("ticket_ttl_seconds %v outside [0, %.0f)",
			req.TicketTTLSeconds, float64(math.MaxInt64)/float64(time.Second))
	}
	var set hardware.Set
	switch {
	case len(req.Hardware) > 0 && req.HardwareSpec != "":
		return "", StreamConfig{}, errors.New("give hardware or hardware_spec, not both")
	case len(req.Hardware) > 0:
		for _, h := range req.Hardware {
			set = append(set, hardware.Config{Name: h.Name, CPUs: h.CPUs, MemoryGB: h.MemoryGB, GPUs: h.GPUs})
		}
	case req.HardwareSpec != "":
		var err error
		if set, err = hardware.ParseSet(req.HardwareSpec); err != nil {
			return "", StreamConfig{}, err
		}
	default:
		return "", StreamConfig{}, errors.New("hardware or hardware_spec is required")
	}
	cfg := StreamConfig{
		Hardware: set,
		Dim:      req.Dim,
		Schema:   req.Schema,
		Options: core.Options{
			Alpha:            req.Alpha,
			MinEpsilon:       req.MinEpsilon,
			ToleranceRatio:   req.ToleranceRatio,
			ToleranceSeconds: req.ToleranceSeconds,
			Seed:             req.Seed,
		},
		Shadows:    req.Shadows,
		MaxPending: req.MaxPending,
		TicketTTL:  time.Duration(ttl),
	}
	if req.Epsilon0 != nil {
		cfg.Options.Epsilon0 = *req.Epsilon0
		cfg.Options.ZeroEpsilon = *req.Epsilon0 == 0
	}
	if req.Policy != nil {
		cfg.Policy = *req.Policy
		if cfg.Policy.Seed == 0 {
			cfg.Policy.Seed = req.Seed
		}
	}
	for i := range cfg.Shadows {
		if cfg.Shadows[i].Policy.Seed == 0 {
			cfg.Shadows[i].Policy.Seed = req.Seed
		}
	}
	if req.Reward != nil {
		cfg.Reward = *req.Reward
	}
	if req.Adapt != nil {
		cfg.Adapt = *req.Adapt
	}
	return req.Name, cfg, nil
}

func handleCreateStream(svc *Service, w http.ResponseWriter, r *http.Request) {
	name, cfg, err := ParseCreateRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = svc.CreateStream(name, cfg)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	info, err := svc.StreamInfo(name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func handleAttachShadow(svc *Service, w http.ResponseWriter, r *http.Request) {
	var req ShadowConfig
	if !decodeBody(w, r, &req) {
		return
	}
	stream := r.PathValue("name")
	if err := svc.AttachShadow(stream, req); err != nil {
		writeError(w, err)
		return
	}
	writeShadows(svc, w, stream, http.StatusCreated)
}

func handleListShadows(svc *Service, w http.ResponseWriter, r *http.Request) {
	writeShadows(svc, w, r.PathValue("name"), http.StatusOK)
}

// writeShadows answers with the stream's shadows in attachment order.
func writeShadows(svc *Service, w http.ResponseWriter, stream string, status int) {
	info, err := svc.StreamInfo(stream)
	if err != nil {
		writeError(w, err)
		return
	}
	shadows := info.Shadows
	if shadows == nil {
		shadows = []ShadowInfo{} // [] not null over HTTP
	}
	writeJSON(w, status, shadowsResponse{Shadows: shadows, Stream: stream})
}

// modelDTO is the wire form of one arm's learned linear model.
type modelDTO struct {
	Hardware string    `json:"hardware"`
	Weights  []float64 `json:"weights"`
	Bias     float64   `json:"bias"`
}

func handleInspectStream(svc *Service, w http.ResponseWriter, r *http.Request) {
	info, models, err := svc.inspect(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		StreamInfo
		Models []modelDTO `json:"models,omitempty"`
	}{info, models})
}

// inspect reads a stream's summary and every arm's model under one hold
// of the stream lock, so both describe the same arm set while arms are
// added or retired. Models is nil for a model-free policy.
func (s *Service) inspect(name string) (StreamInfo, []modelDTO, error) {
	st, err := s.stream(name)
	if err != nil {
		return StreamInfo{}, nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	info := st.infoLocked(s.now())
	models := make([]modelDTO, len(st.armLabels))
	for i, label := range st.armLabels {
		m, err := st.engine.Model(i)
		if errors.Is(err, ErrUnsupported) {
			return info, nil, nil
		}
		if err != nil {
			return StreamInfo{}, nil, err
		}
		models[i] = modelDTO{Hardware: label, Weights: m.Weights, Bias: m.Bias}
	}
	return info, models, nil
}

type recommendRequest struct {
	// Features is the raw positional vector form; Context the named form
	// validated and encoded by the stream's feature schema. Exactly one
	// must be given.
	Features []float64       `json:"features,omitempty"`
	Context  *schema.Context `json:"context,omitempty"`
}

func handleRecommend(svc *Service, w http.ResponseWriter, r *http.Request) {
	var req recommendRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var t Ticket
	var err error
	switch {
	case req.Context != nil && req.Features != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "give context or features, not both"})
		return
	case req.Context != nil:
		t, err = svc.RecommendCtx(r.PathValue("name"), *req.Context)
	default:
		t, err = svc.Recommend(r.PathValue("name"), req.Features)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, t)
}

type recommendBatchRequest struct {
	// Batch is the raw vector form; Contexts the named form. Giving both
	// is a 400. An empty or absent batch issues nothing and answers 200
	// with an empty ticket list (404 still for an unknown stream).
	Batch    [][]float64      `json:"batch,omitempty"`
	Contexts []schema.Context `json:"contexts,omitempty"`
}

func handleRecommendBatch(svc *Service, w http.ResponseWriter, r *http.Request) {
	var req recommendBatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Batch != nil && req.Contexts != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "give contexts or batch, not both"})
		return
	}
	ts, err := svc.recommendBatch(r.PathValue("name"), req.Batch, req.Contexts)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ticketsResponse{Tickets: ts})
}

type observeRequest struct {
	// Ticket path: the decision ticket to redeem.
	Ticket string `json:"ticket,omitempty"`
	// Direct path (requires a stream-scoped URL): the arm the caller
	// tracked itself plus its features — raw (features) or named
	// (context), exactly one. Arm is a pointer so arm 0 is expressible.
	Arm      *int            `json:"arm,omitempty"`
	Features []float64       `json:"features,omitempty"`
	Context  *schema.Context `json:"context,omitempty"`

	// The observation itself: either the scalar runtime (mapped to the
	// default Outcome) or the structured outcome form — not both.
	Runtime float64  `json:"runtime,omitempty"`
	Outcome *Outcome `json:"outcome,omitempty"`
}

// handleObserve serves both observe endpoints. streamName is "" for the
// top-level /v1/observe (ticket-only; the stream comes from the ticket
// ID) and the path stream for /v1/streams/{name}/observe, where it must
// match a ticket's stream and enables the direct arm+features form.
func handleObserve(svc *Service, w http.ResponseWriter, r *http.Request, streamName string) {
	var req observeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// Observation validity first (422), then ticket shape, then the
	// ticket's stream — the order every observe path keeps.
	o, err := observedOutcome(req.Runtime, req.Outcome)
	if err != nil {
		writeError(w, err)
		return
	}
	switch {
	case req.Ticket != "":
		owner, seq, err := ParseTicketID(req.Ticket)
		if err != nil {
			writeError(w, err)
			return
		}
		if streamName != "" && owner != streamName {
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: fmt.Sprintf("ticket %q belongs to stream %q, not %q", req.Ticket, owner, streamName),
			})
			return
		}
		if err := svc.redeem(owner, seq, o); err != nil {
			writeError(w, err)
			return
		}
	case req.Arm != nil && streamName != "":
		if req.Context != nil && req.Features != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "give context or features, not both"})
			return
		}
		if err := svc.observeDirect(streamName, *req.Arm, req.Features, req.Context, o); err != nil {
			writeError(w, err)
			return
		}
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "observe needs a ticket, or arm plus features/context on a stream URL"})
		return
	}
	writeJSON(w, http.StatusOK, statusResponse{Status: "observed"})
}

type observeBatchRequest struct {
	Observations []ticketObservation `json:"observations"`
}

// observeBatchResult is the outcome of one observation in a batch,
// keyed by its input index so callers can tell exactly which
// observations landed.
type observeBatchResult struct {
	Index int    `json:"index"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

type observeBatchResponse struct {
	Applied int                  `json:"applied"`
	Results []observeBatchResult `json:"results"`
}

func handleObserveBatch(svc *Service, w http.ResponseWriter, r *http.Request) {
	var req observeBatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	applied, errs := svc.observeBatch(r.PathValue("name"), req.Observations)
	resp := observeBatchResponse{
		Applied: applied,
		Results: make([]observeBatchResult, len(req.Observations)),
	}
	for i, err := range errs {
		res := observeBatchResult{Index: i, OK: err == nil}
		if err != nil {
			res.Error = err.Error()
		}
		resp.Results[i] = res
	}
	writeJSON(w, http.StatusOK, resp)
}

// flattenJoined unwraps an errors.Join-style multi-error into its leaf
// parts, recursively — so a schema.ValidationError (itself a
// multi-error of per-field violations) nested inside a batch join
// flattens all the way down to individual field errors.
func flattenJoined(err error) []error {
	u, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return []error{err}
	}
	var out []error
	for _, e := range u.Unwrap() {
		out = append(out, flattenJoined(e)...)
	}
	return out
}

// armAddRequest is the wire form of one arm addition. Like stream
// creation, the hardware comes as a structured object or the CLI string
// form — exactly one of the two.
type armAddRequest struct {
	Hardware     *hardwareDTO `json:"hardware,omitempty"`
	HardwareSpec string       `json:"hardware_spec,omitempty"`
	// Warm selects the warm-start mode: "", "cold", "pooled", or
	// "nearest"; WarmWeight scales the donor statistics, in (0, 1]
	// (0 = default).
	Warm       string  `json:"warm,omitempty"`
	WarmWeight float64 `json:"warm_weight,omitempty"`
	// Trial adds the arm in the trial state: learning but not serving
	// until promoted.
	Trial bool `json:"trial,omitempty"`
}

// resolve validates the request and maps it onto the service's ArmAdd.
// Shared by the HTTP handler and the request fuzzer, so every path that
// parses an arm request enforces the same rules.
func (req armAddRequest) resolve() (ArmAdd, error) {
	add := ArmAdd{Warm: req.Warm, WarmWeight: req.WarmWeight, Trial: req.Trial}
	switch {
	case req.Hardware != nil && req.HardwareSpec != "":
		return ArmAdd{}, fmt.Errorf("%w: give hardware or hardware_spec, not both", ErrBadArmRequest)
	case req.Hardware != nil:
		add.Hardware = hardware.Config{
			Name:     req.Hardware.Name,
			CPUs:     req.Hardware.CPUs,
			MemoryGB: req.Hardware.MemoryGB,
			GPUs:     req.Hardware.GPUs,
		}
	case req.HardwareSpec != "":
		set, err := hardware.ParseSet(req.HardwareSpec)
		if err != nil {
			return ArmAdd{}, fmt.Errorf("%w: %v", ErrBadArmRequest, err)
		}
		if len(set) != 1 {
			return ArmAdd{}, fmt.Errorf("%w: hardware_spec must describe exactly one configuration, got %d", ErrBadArmRequest, len(set))
		}
		add.Hardware = set[0]
	default:
		return ArmAdd{}, fmt.Errorf("%w: hardware or hardware_spec is required", ErrBadArmRequest)
	}
	return add, nil
}

func handleAddArm(svc *Service, w http.ResponseWriter, r *http.Request) {
	var req armAddRequest
	if !decodeBody(w, r, &req) {
		return
	}
	add, err := req.resolve()
	if err != nil {
		writeError(w, err)
		return
	}
	name := r.PathValue("name")
	idx, err := svc.AddArm(name, add)
	if err != nil {
		writeError(w, err)
		return
	}
	arms, err := svc.Arms(name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, armAddedResponse{Arm: idx, Arms: arms, Stream: name})
}

// handleArmLifecycle runs one {name}/arms/{arm} transition (drain,
// promote, retire) and responds with the post-transition arm listing.
func handleArmLifecycle(svc *Service, w http.ResponseWriter, r *http.Request, op func(string, int) error) {
	name := r.PathValue("name")
	arm, err := strconv.Atoi(r.PathValue("arm"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "arm must be an integer index: " + r.PathValue("arm")})
		return
	}
	if err := op(name, arm); err != nil {
		writeError(w, err)
		return
	}
	arms, err := svc.Arms(name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, armsResponse{Arms: arms, Stream: name})
}

// Package serve implements the BanditWare serving layer: a concurrent,
// multi-tenant registry of named recommender streams, each an independent
// decision engine with its own hardware set, feature dimension, and
// policy — the paper's Algorithm 1 bandit by default, or any
// internal/policy alternative (LinUCB, linear Thompson sampling, fixed
// ε-greedy, softmax, random) via PolicySpec. It models the paper's
// deployment behind the National Data Platform, where many applications
// submit workflows concurrently and a recommendation is issued long
// before its runtime is observed.
//
// Five design points:
//
//   - Copy-on-write registry. The stream registry is an immutable map
//     behind an atomic pointer: lookups on the serving path
//     (Recommend/Observe) are lock-free loads, and mutations
//     (create/remove/import) clone the map and swap the pointer under a
//     registry mutex — so requests never contend on registry state, and
//     every stream carries its own lock for its own mutable state.
//
//   - Decision tickets. Recommend returns a ticket (ID + chosen arm +
//     predictions) and parks the features in a bounded pending-decision
//     ledger; Observe(ticketID, runtime) joins the stored features and
//     arm automatically, so clients carry one opaque string between
//     submission and completion instead of echoing feature vectors.
//     Tickets evict oldest-first past the ledger capacity and expire
//     after a TTL — see ledger.go.
//
//   - Feature schemas. A stream may declare its feature layout as
//     ordered named fields (internal/schema): RecommendCtx and friends
//     validate and deterministically encode named contexts — numeric
//     fields with bounds/defaults and online normalization, categorical
//     fields one-hot expanded — while raw-vector calls keep working on
//     every stream through the identity schema.
//
//   - Structured outcomes and rewards. An observation is an Outcome —
//     measured runtime plus optional success/failure and named metrics —
//     and every stream carries a RewardSpec mapping the Outcome and the
//     chosen arm's hardware to the scalar its engine learns from:
//     runtime (the default, today's behaviour), cost_weighted (the
//     paper's runtime-vs-resource-waste tradeoff), deadline (graded SLO
//     penalty), or failure_penalty — see internal/reward. Scalar
//     Observe(ticket, runtime) calls map to the default Outcome, so old
//     callers are unchanged.
//
//   - Shadow evaluation. A stream may carry shadow policies that see
//     every context and observation but never serve traffic; replay- and
//     model-based regret counters let operators A/B a candidate policy
//     against the serving one on live traffic, and a shadow may score
//     the same Outcomes under its own RewardSpec to compare reward
//     regimes live — see shadow.go.
//
//   - Snapshots. Save serialises every stream (engine state, schema with
//     normalization statistics, shadows, counters, and pending tickets)
//     into one versioned JSON envelope taken at a single point in time;
//     Load also reads the earlier envelope versions and the legacy
//     single-recommender state format, restoring the latter as stream
//     "default".
package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"banditware/internal/armset"
	"banditware/internal/core"
	"banditware/internal/drift"
	"banditware/internal/hardware"
	"banditware/internal/linalg"
	"banditware/internal/regress"
	"banditware/internal/reward"
	"banditware/internal/schema"
)

// Outcome is the structured observation of one completed workflow run:
// measured runtime plus optional success/failure and named metrics
// (see banditware/internal/reward). Outcome{Runtime: rt} reproduces the
// scalar observation exactly.
type Outcome = reward.Outcome

// RewardSpec selects and parameterises a stream's (or shadow's) reward
// function — how an Outcome plus the chosen arm's hardware collapses to
// the scalar the engine learns from. The zero value is the runtime
// reward (today's behaviour). In JSON the spec may be either a bare
// string ("cost_weighted") or an object
// ({"type": "cost_weighted", "lambda": 0.5}).
type RewardSpec = reward.Spec

// Canonical reward types accepted in RewardSpec.Type.
const (
	RewardRuntime        = reward.TypeRuntime
	RewardCostWeighted   = reward.TypeCostWeighted
	RewardDeadline       = reward.TypeDeadline
	RewardFailurePenalty = reward.TypeFailurePenalty
	RewardQueueWeighted  = reward.TypeQueueWeighted
)

// Reward/outcome errors, re-exported for errors.Is checks.
var (
	// ErrBadOutcome reports an Outcome that failed validation (negative
	// or non-finite runtime, unknown metric, negative metric value).
	// Outcomes are validated before a ticket is redeemed, so a bad
	// outcome never burns the ticket. HTTP maps it to 422.
	ErrBadOutcome = reward.ErrBadOutcome
	// ErrBadReward reports a RewardSpec no reward function accepts.
	ErrBadReward = reward.ErrBadSpec
)

// rewardState is a stream's (or shadow's) compiled reward: the
// canonical spec it reports and persists, plus the scoring function.
type rewardState struct {
	spec reward.Spec
	fn   reward.Func
}

// compileReward resolves a RewardSpec into its rewardState.
func compileReward(spec RewardSpec) (rewardState, error) {
	fn, canonical, err := reward.Compile(spec)
	if err != nil {
		return rewardState{}, err
	}
	return rewardState{spec: canonical, fn: fn}, nil
}

// defaultReward is the runtime reward every pre-Outcome caller gets.
func defaultReward() rewardState {
	rs, err := compileReward(RewardSpec{})
	if err != nil {
		panic("serve: default reward failed to compile: " + err.Error())
	}
	return rs
}

// Errors reported by the service.
var (
	ErrStreamExists   = errors.New("serve: stream already exists")
	ErrStreamNotFound = errors.New("serve: stream not found")
	ErrBadStreamName  = errors.New("serve: invalid stream name")
	ErrTicketNotFound = errors.New("serve: ticket not found (never issued, already observed, or evicted)")
	ErrTicketExpired  = errors.New("serve: ticket expired")
	ErrBadTicket      = errors.New("serve: malformed ticket id")
)

const (
	// defaultMaxPending bounds each stream's pending-decision ledger when
	// neither the service nor the stream sets a capacity.
	defaultMaxPending = 4096
)

// ServiceOptions configures service-wide defaults.
type ServiceOptions struct {
	// MaxPending is the default per-stream pending-ticket capacity.
	// 0 selects defaultMaxPending.
	MaxPending int
	// TicketTTL is the default pending-ticket lifetime. 0 = no expiry.
	TicketTTL time.Duration
	// Now overrides the clock (tests inject a fake). nil = time.Now.
	Now func() time.Time
}

// StreamConfig describes one recommender stream.
type StreamConfig struct {
	// Hardware is the stream's arm set.
	Hardware hardware.Set
	// Dim is the workflow feature dimension. When Schema is set, Dim is
	// derived from it (Schema.EncodedDim) and must be 0 or match.
	Dim int
	// Schema optionally declares the stream's feature layout by name:
	// contexts submitted through RecommendCtx (or the HTTP "context"
	// payloads of the recommend and observe routes) are validated and
	// encoded against it, and its normalization statistics persist in
	// snapshots. Streams without a schema serve context calls through an
	// identity schema (required numeric fields x0..x{dim-1}) and raw
	// vectors unchanged.
	Schema *schema.Schema
	// Options are the Algorithm 1 parameters for this stream. They are
	// ignored when Policy selects a non-Algorithm 1 policy. Their memory
	// knobs (ForgettingFactor, WindowSize) must stay zero: a stream's
	// memory is set by Adapt alone.
	Options core.Options
	// Policy selects the stream's decision policy; the zero value is
	// Algorithm 1 parameterised by Options.
	Policy PolicySpec
	// Reward selects how observed Outcomes collapse to the scalar the
	// engine learns from; the zero value is the runtime reward (the
	// measured runtime unchanged — the paper's Algorithm 1 signal).
	Reward RewardSpec
	// Adapt selects the stream's adaptation to non-stationary
	// environments (model forgetting or sliding windows, plus the
	// on-drift response); the zero value is mode "none" — infinite
	// horizon learning with observe-only drift detection, exactly the
	// pre-adaptation behaviour.
	Adapt AdaptSpec
	// Shadows are shadow policies attached at creation time, in order:
	// the stream is registered only once every one of them has attached,
	// so a bad shadow fails the whole create.
	Shadows []ShadowConfig
	// MaxPending overrides the service default ledger capacity (0 =
	// inherit; negative is refused).
	MaxPending int
	// TicketTTL overrides the service default ticket lifetime (0 =
	// inherit; negative is refused).
	TicketTTL time.Duration
}

// Ticket records one issued recommendation. The ID redeems it via
// Observe; everything else is informational for the client.
type Ticket struct {
	ID        string    `json:"id"`
	Stream    string    `json:"stream"`
	Arm       int       `json:"arm"`
	Hardware  string    `json:"hardware"`
	Explored  bool      `json:"explored"`
	Predicted []float64 `json:"predicted"`
	Epsilon   float64   `json:"epsilon"`
	IssuedAt  time.Time `json:"issued_at"`
	// Seq is the ticket's per-stream sequence number — the numeric half
	// of ID. The zero-allocation path (RecommendInto/ObserveSeq) carries
	// it instead of rendering or parsing ID strings; it is not part of
	// the wire form (ID remains the API's ticket handle).
	Seq uint64 `json:"-"`
}

// ticketObservation is one item of an observe batch: a ticket ID with
// either a bare measured runtime or a structured Outcome.
type ticketObservation struct {
	TicketID string   `json:"ticket"`
	Runtime  float64  `json:"runtime,omitempty"`
	Outcome  *Outcome `json:"outcome,omitempty"`
}

// observedOutcome resolves an observation's effective Outcome and
// validates it: a bare runtime maps to the default Outcome, and an
// observation carrying both forms fails with ErrBadOutcome. Every
// observe route applies this one rule.
func observedOutcome(runtime float64, o *Outcome) (Outcome, error) {
	if o == nil {
		out := Outcome{Runtime: runtime}
		return out, validateOutcome(out)
	}
	if runtime != 0 {
		return Outcome{}, fmt.Errorf("%w: give outcome or runtime, not both", ErrBadOutcome)
	}
	return *o, validateOutcome(*o)
}

// StreamInfo is a point-in-time summary of one stream.
type StreamInfo struct {
	Name     string   `json:"name"`
	Policy   string   `json:"policy"`
	Hardware []string `json:"hardware"`
	Dim      int      `json:"dim"`
	// Schema is a copy of the stream's declared feature schema
	// (including live normalization statistics); absent for streams
	// created from raw dimensions.
	Schema   *schema.Schema `json:"schema,omitempty"`
	Round    int            `json:"round"`
	Epsilon  float64        `json:"epsilon"`
	Pending  int            `json:"pending"`
	Issued   uint64         `json:"issued"`
	Observed uint64         `json:"observed"`
	Evicted  uint64         `json:"evicted"`
	Expired  uint64         `json:"expired"`
	// Reward is the stream's canonical reward spec (type "runtime" for
	// streams that never declared one).
	Reward RewardSpec `json:"reward"`
	// RewardTotal is the cumulative scalar reward the engine has learned
	// from; RuntimeTotal the cumulative measured runtime (identical for
	// runtime-reward streams); Failures counts outcomes explicitly
	// marked unsuccessful. Together they let operators compare reward
	// regimes live.
	RewardTotal  float64 `json:"reward_total"`
	RuntimeTotal float64 `json:"runtime_total"`
	Failures     uint64  `json:"failures"`
	// Adapt is the stream's canonical adaptation spec (mode "none" for
	// streams that never declared one); DriftEvents totals the online
	// drift detections across arms, with DriftByArm splitting them per
	// arm (absent until the first detection). The drift endpoint
	// (Service.Drift) carries the full per-arm detector state.
	Adapt       AdaptSpec `json:"adapt"`
	DriftEvents uint64    `json:"drift_events"`
	DriftByArm  []uint64  `json:"drift_by_arm,omitempty"`
	// Shadows summarises the stream's shadow policies, in attachment
	// order; absent when none are attached.
	Shadows []ShadowInfo `json:"shadows,omitempty"`
	// ArmStates is the per-arm lifecycle status ("active", "trial",
	// "draining"), index-aligned with Hardware; absent while every arm
	// is active (the steady state).
	ArmStates []string `json:"arm_states,omitempty"`
}

// Stats summarises the whole service.
type Stats struct {
	Streams       []StreamInfo `json:"streams"`
	TotalIssued   uint64       `json:"total_issued"`
	TotalObserved uint64       `json:"total_observed"`
	TotalPending  int          `json:"total_pending"`
	// TotalReward and TotalRuntime sum the per-stream reward and
	// runtime totals; TotalFailures the per-stream failure counts.
	TotalReward   float64 `json:"total_reward"`
	TotalRuntime  float64 `json:"total_runtime"`
	TotalFailures uint64  `json:"total_failures"`
	// TotalDriftEvents sums the per-stream drift-detection counts.
	TotalDriftEvents uint64 `json:"total_drift_events"`
}

// stream is one registered recommender: a decision engine plus its
// pending-ticket ledger and shadow policies, guarded by its own mutex so
// independent streams never contend.
type stream struct {
	name string
	// armLabels caches Hardware()[i].String() — rendered on every issued
	// ticket, so not worth re-formatting per request.
	armLabels []string
	// schemaDeclared records whether sch came from the caller (persisted
	// in snapshots, surfaced in StreamInfo) or is the derived identity
	// schema of a raw-dimension stream (neither).
	schemaDeclared bool

	mu sync.Mutex
	// sch encodes named contexts into the engine's vector space. Never
	// nil: raw-dimension streams carry the identity schema. Guarded by mu
	// because encoding mutates normalization statistics.
	sch     *schema.Schema
	engine  Engine
	shadows []*shadow
	// encScratch and predScratch are per-stream reusable buffers for
	// context encoding and engine predictions (see predictLocked). All
	// guarded by mu.
	encScratch  []float64
	predScratch []float64
	// decScratch is the Decision handed to engine.RecommendInto: going
	// through a stream-owned struct (instead of &local) keeps the
	// interface call from forcing a per-request heap escape.
	decScratch core.Decision
	// rw scores every observed Outcome into the engine's learning
	// signal. Always compiled; the default is the runtime reward.
	rw rewardState
	// adapt is the stream's canonical adaptation spec and detectors its
	// per-arm drift monitors (never nil; every stream watches for drift
	// even in mode "none"). driftResets counts the arm-model resets an
	// on_drift="reset" stream has performed.
	adapt       AdaptSpec
	detectors   []*drift.PageHinkley
	driftResets uint64
	// merged accumulates foreign contributions folded in via ApplyDelta
	// (nil until the first merge) and armGen counts drift-triggered arm
	// resets, so delta extraction can separate local learning from
	// replicated state — see delta.go.
	merged   *mergedState
	armGen   []uint64
	ledger   *ledger
	nextSeq  uint64
	issued   uint64
	observed uint64
	// life tracks per-arm lifecycle status (active/trial/draining) for
	// runtime arm-set elasticity; always sized to the engine's arm set.
	life *armset.Lifecycle
	// rewardTotal sums the scalar rewards fed to the engine;
	// runtimeTotal the measured runtimes; failures counts outcomes
	// explicitly marked unsuccessful.
	rewardTotal  float64
	runtimeTotal float64
	failures     uint64
}

// Service is a concurrent multi-stream recommender registry. The zero
// value is not usable; construct with NewService or Load.
type Service struct {
	opts ServiceOptions

	// streams points at the current immutable registry map (RCU):
	// readers load it lock-free; mutators clone-and-swap under regMu.
	// The map value is never mutated in place after Store.
	streams atomic.Pointer[map[string]*stream]
	regMu   sync.Mutex

	// maintenance counts in-flight snapshot imports; non-zero means
	// not-ready (see Ready and GET /v1/readyz).
	maintenance atomic.Int64
	// syncMu guards the per-peer delta-sync baselines (see delta.go).
	syncMu     sync.Mutex
	syncStates []*SyncState
}

// NewService constructs an empty service.
func NewService(opts ServiceOptions) *Service {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = defaultMaxPending
	}
	s := &Service{opts: opts}
	empty := make(map[string]*stream)
	s.streams.Store(&empty)
	return s
}

func (s *Service) now() time.Time { return s.opts.Now() }

// ValidStreamName reports whether name can identify a stream: 1–128
// characters from [A-Za-z0-9._-], excluding "." and "..". The charset
// keeps names safe inside ticket IDs (no '#') and URL paths (no '/');
// the dot exclusions keep them from being swallowed by HTTP path
// cleaning, which would make such streams unreachable over the API.
func ValidStreamName(name string) bool {
	if name == "" || len(name) > 128 || name == "." || name == ".." {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

// CreateStream registers a new stream under name, constructing its
// engine from cfg.Policy (Algorithm 1 with cfg.Options by default) and
// attaching cfg.Shadows. When cfg.Schema is set, the model dimension is
// the schema's encoded dimension (cfg.Dim must be 0 or agree) and the
// service keeps a private clone of the schema, so the caller's copy
// never observes normalization-state mutations.
func (s *Service) CreateStream(name string, cfg StreamConfig) error {
	if cfg.MaxPending < 0 || cfg.TicketTTL < 0 {
		return fmt.Errorf("serve: negative max pending %d or ticket TTL %v (0 inherits the service default)",
			cfg.MaxPending, cfg.TicketTTL)
	}
	dim := cfg.Dim
	var sch *schema.Schema
	if cfg.Schema != nil {
		if err := cfg.Schema.Validate(); err != nil {
			return err
		}
		ed := cfg.Schema.EncodedDim()
		if dim != 0 && dim != ed {
			return fmt.Errorf("%w: dim %d conflicts with schema encoded dimension %d",
				schema.ErrInvalidSchema, dim, ed)
		}
		dim = ed
		sch = cfg.Schema.Clone()
	}
	rw, err := compileReward(cfg.Reward)
	if err != nil {
		return err
	}
	// Adapt is the one memory knob: a stream that forgot or windowed
	// through the raw Options would report mode "none" and be skipped by
	// replication as non-mergeable.
	if cfg.Options.ForgettingFactor != 0 {
		return fmt.Errorf("%w: set Adapt (mode %q, factor %v) instead of Options.ForgettingFactor",
			ErrBadAdapt, AdaptForgetting, cfg.Options.ForgettingFactor)
	}
	if cfg.Options.WindowSize != 0 {
		return fmt.Errorf("%w: set Adapt (mode %q, window %d) instead of Options.WindowSize",
			ErrBadAdapt, AdaptWindow, cfg.Options.WindowSize)
	}
	adapt, err := compileAdapt(cfg.Adapt)
	if err != nil {
		return err
	}
	if err := checkStreamShape(len(cfg.Hardware), len(cfg.Shadows), dim); err != nil {
		return err
	}
	eng, err := buildEngine(cfg.Hardware, dim, cfg.Options, cfg.Policy, adapt)
	if err != nil {
		return err
	}
	st, err := s.newStream(name, eng, sch, rw, adapt, cfg.MaxPending, cfg.TicketTTL)
	if err != nil {
		return err
	}
	// No request can reach the stream before register, so its shadows
	// attach without its lock and a failed one leaves nothing behind.
	for _, sh := range cfg.Shadows {
		if err := st.attachShadowLocked(sh); err != nil {
			return fmt.Errorf("shadow %q: %w", sh.Name, err)
		}
	}
	return s.register(st)
}

// adoptBandit registers an already-constructed Algorithm 1 bandit as a
// stream: the restore path of the legacy single-recommender format.
func (s *Service) adoptBandit(name string, b *core.Bandit) error {
	return s.adopt(name, banditEngine{b}, nil, defaultReward(), defaultAdapt(), 0, 0)
}

// defaultAdapt is the canonical default adaptation every pre-adaptation
// caller gets: mode "none", observe-only drift detection.
func defaultAdapt() AdaptSpec {
	a, err := compileAdapt(AdaptSpec{})
	if err != nil {
		panic("serve: default adaptation failed to compile: " + err.Error())
	}
	return a
}

// adopt registers an engine as a stream (see newStream).
func (s *Service) adopt(name string, eng Engine, sch *schema.Schema, rw rewardState, adapt AdaptSpec, maxPending int, ttl time.Duration) error {
	st, err := s.newStream(name, eng, sch, rw, adapt, maxPending, ttl)
	if err != nil {
		return err
	}
	return s.register(st)
}

// newStream wraps an engine in an unregistered stream. sch is the
// stream's declared feature schema (already cloned and validated, its
// encoded dimension equal to the engine's); nil selects the identity
// schema. rw is the stream's compiled reward and adapt its canonical
// adaptation spec.
func (s *Service) newStream(name string, eng Engine, sch *schema.Schema, rw rewardState, adapt AdaptSpec, maxPending int, ttl time.Duration) (*stream, error) {
	if !ValidStreamName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadStreamName, name)
	}
	if maxPending <= 0 {
		maxPending = s.opts.MaxPending
	}
	if ttl <= 0 {
		ttl = s.opts.TicketTTL
	}
	declared := sch != nil
	if sch == nil {
		sch = schema.Identity(eng.Dim())
	}
	st := &stream{
		name: name, engine: eng, sch: sch, schemaDeclared: declared,
		rw:        rw,
		adapt:     adapt,
		detectors: newDetectors(adapt, len(eng.Hardware())),
		ledger:    newLedger(maxPending, ttl, eng.Dim()),
		life:      armset.NewLifecycle(len(eng.Hardware())),
	}
	st.armLabels = make([]string, len(eng.Hardware()))
	for i, hw := range eng.Hardware() {
		st.armLabels[i] = hw.String()
	}
	return st, nil
}

// register publishes a stream built by newStream under its name.
func (s *Service) register(st *stream) error {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	cur := *s.streams.Load()
	if _, ok := cur[st.name]; ok {
		return fmt.Errorf("%w: %q", ErrStreamExists, st.name)
	}
	next := make(map[string]*stream, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[st.name] = st
	s.streams.Store(&next)
	return nil
}

// RemoveStream unregisters a stream, dropping its model state and any
// pending tickets.
func (s *Service) RemoveStream(name string) error {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	cur := *s.streams.Load()
	if _, ok := cur[name]; !ok {
		return fmt.Errorf("%w: %q", ErrStreamNotFound, name)
	}
	next := make(map[string]*stream, len(cur)-1)
	for k, v := range cur {
		if k != name {
			next[k] = v
		}
	}
	s.streams.Store(&next)
	return nil
}

func (s *Service) stream(name string) (*stream, error) {
	st, ok := (*s.streams.Load())[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrStreamNotFound, name)
	}
	return st, nil
}

// allStreams returns every registered stream sorted by name.
func (s *Service) allStreams() []*stream {
	cur := *s.streams.Load()
	out := make([]*stream, 0, len(cur))
	for _, st := range cur {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// NumStreams returns the number of registered streams.
func (s *Service) NumStreams() int {
	return len(*s.streams.Load())
}

// --- ticket ids ------------------------------------------------------

// ticketID renders "stream#sequence". Stream names cannot contain '#'
// (ValidStreamName), so the split is unambiguous. The ID is assembled
// on the stack (a 128-byte name, '#' and up to 16 hex digits) and
// copied out once, so every ID costs exactly one allocation.
func ticketID(stream string, seq uint64) string {
	var buf [128 + 1 + 16]byte
	b := append(buf[:0], stream...)
	b = append(b, '#')
	b = strconv.AppendUint(b, seq, 16)
	return string(b)
}

// ParseTicketID splits a ticket ID into its stream name and sequence.
// It accepts exactly the IDs ticketID renders: a valid stream name, '#',
// and the seq in lower-case hex without leading zeros. Every other
// spelling of a ticket is malformed rather than an alias of it.
func ParseTicketID(id string) (stream string, seq uint64, err error) {
	i := strings.LastIndexByte(id, '#')
	if i < 0 || !ValidStreamName(id[:i]) {
		return "", 0, fmt.Errorf("%w: %q", ErrBadTicket, id)
	}
	hex := id[i+1:]
	if hex == "" || len(hex) > 16 || (len(hex) > 1 && hex[0] == '0') {
		return "", 0, fmt.Errorf("%w: %q", ErrBadTicket, id)
	}
	for j := 0; j < len(hex); j++ {
		c := hex[j]
		switch {
		case c >= '0' && c <= '9':
			seq = seq<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			seq = seq<<4 | uint64(c-'a'+10)
		default:
			return "", 0, fmt.Errorf("%w: %q", ErrBadTicket, id)
		}
	}
	return id[:i], seq, nil
}

// --- serving path ----------------------------------------------------

// checkFeatures rejects a raw feature vector holding NaN or ±Inf with
// core.ErrBadValue. Every entry point that takes a raw vector calls it
// before any ticket, sequence number, ledger slot, residual or model
// moves: a non-finite feature poisons the models it reaches, and a
// pending ticket holding one makes Save fail for the whole service.
func checkFeatures(x []float64) error {
	if !linalg.VecIsFinite(x) {
		return fmt.Errorf("%w: feature vector is not finite", core.ErrBadValue)
	}
	return nil
}

// selectLocked asks the engine for a decision on x into d, rerouting
// off an arm the lifecycle does not let serve. It is the one selection
// step of both issue paths, so it checks x first. Callers hold st.mu.
func (st *stream) selectLocked(x []float64, d *core.Decision) error {
	if err := checkFeatures(x); err != nil {
		return err
	}
	if err := st.engine.RecommendInto(x, d); err != nil {
		return err
	}
	if !st.life.AllActive() && !st.life.Servable(d.Arm) {
		st.rerouteLocked(d, x)
	}
	return nil
}

// issueLocked issues one decision ticket into a caller-reused Ticket:
// it selects an arm, deposits the features (and each shadow's own
// selection for the same context, so the eventual observation can
// score them) in the ledger's slab, and sets every Ticket field but ID.
// t.Predicted's backing array is reused and t.Seq carries the ticket
// identity, so nothing is allocated. Callers hold st.mu.
func (st *stream) issueLocked(now time.Time, x []float64, t *Ticket) error {
	d := &st.decScratch
	d.Predicted = t.Predicted[:0]
	if err := st.selectLocked(x, d); err != nil {
		return err
	}
	seq := st.nextSeq
	st.nextSeq++
	st.ledger.add(seq, d.Arm, x, st.shadowRecommendLocked(x), now)
	st.issued++
	*t = Ticket{
		Stream:    st.name,
		Arm:       d.Arm,
		Hardware:  st.armLabels[d.Arm],
		Explored:  d.Explored,
		Predicted: d.Predicted,
		Epsilon:   d.Epsilon,
		IssuedAt:  now,
		Seq:       seq,
	}
	return nil
}

// encodeLocked validates and encodes ctx against the stream's schema
// into the stream's reusable encode buffer (valid until the next call).
// Callers hold st.mu.
func (st *stream) encodeLocked(ctx schema.Context) ([]float64, error) {
	x, err := st.sch.EncodeInto(ctx, st.encScratch[:0])
	if err != nil {
		return nil, err
	}
	st.encScratch = x
	return x, nil
}

// Recommend issues a decision ticket for one workflow on the named
// stream. The features are retained in the stream's pending ledger until
// Observe redeems the ticket (or it is evicted/expired). It is
// RecommendInto into a fresh Ticket plus the rendered ID.
func (s *Service) Recommend(name string, x []float64) (Ticket, error) {
	var t Ticket
	if err := s.RecommendInto(name, x, &t); err != nil {
		return Ticket{}, err
	}
	t.ID = ticketID(name, t.Seq)
	return t, nil
}

// RecommendCtx issues a decision ticket for one workflow described by a
// named context instead of a raw feature vector: the context is
// validated against the stream's schema (every violation reported per
// field, wrapping schema.ErrSchemaViolation) and deterministically
// encoded — numeric fields normalized against the stream's running
// statistics, categorical fields one-hot expanded — before the engine
// selects. On streams created without a schema the identity layout
// (fields "x0".."x{dim-1}") applies. It is RecommendCtxInto into a
// fresh Ticket plus the rendered ID.
func (s *Service) RecommendCtx(name string, ctx schema.Context) (Ticket, error) {
	var t Ticket
	if err := s.RecommendCtxInto(name, ctx, &t); err != nil {
		return Ticket{}, err
	}
	t.ID = ticketID(name, t.Seq)
	return t, nil
}

// recommendBatch issues one ticket per item on the named stream,
// atomically: the items are the named contexts ctxs when ctxs is
// non-nil and the raw vectors xs otherwise. The stream lock is held
// once for the whole batch, and every item is checked first (a raw
// vector for dimension and finiteness, a context against the schema),
// so a bad item anywhere rejects the batch, with its index in the
// error, before any ticket is issued or any normalization statistic
// advances.
func (s *Service) recommendBatch(name string, xs [][]float64, ctxs []schema.Context) ([]Ticket, error) {
	st, err := s.stream(name)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	n := len(xs)
	if ctxs != nil {
		n = len(ctxs)
	}
	for i := 0; i < n; i++ {
		switch {
		case ctxs != nil:
			err = st.sch.ValidateContext(ctxs[i])
		case len(xs[i]) != st.engine.Dim():
			err = fmt.Errorf("%w (got %d, want %d)", core.ErrDim, len(xs[i]), st.engine.Dim())
		default:
			err = checkFeatures(xs[i])
		}
		if err != nil {
			return nil, fmt.Errorf("serve: batch item %d: %w", i, err)
		}
	}
	now := s.now()
	out := make([]Ticket, n)
	for i := range out {
		var x []float64
		if ctxs != nil {
			x, err = st.encodeLocked(ctxs[i])
		} else {
			x = xs[i]
		}
		if err == nil {
			err = st.issueLocked(now, x, &out[i])
		}
		if err != nil {
			return nil, fmt.Errorf("serve: batch item %d: %w", i, err)
		}
		out[i].ID = ticketID(name, out[i].Seq)
	}
	return out, nil
}

// validateOutcome rejects malformed outcomes with ErrBadOutcome. A
// non-finite runtime additionally wraps core.ErrBadValue — the
// sentinel the engine reported for that case before outcomes existed —
// so pre-Outcome errors.Is checks keep working; the new rejections
// (negative runtime, bad metrics) carry only the outcome sentinel.
func validateOutcome(o Outcome) error {
	err := o.Validate()
	if err == nil {
		return nil
	}
	if math.IsNaN(o.Runtime) || math.IsInf(o.Runtime, 0) {
		return fmt.Errorf("%w (%w)", err, core.ErrBadValue)
	}
	return err
}

// checkArmLocked rejects an arm index outside the stream's current arm
// set with core.ErrArm. Callers hold st.mu.
func (st *stream) checkArmLocked(arm int) error {
	if n := len(st.engine.Hardware()); arm < 0 || arm >= n {
		return fmt.Errorf("%w (arm %d of %d)", core.ErrArm, arm, n)
	}
	return nil
}

// applyOutcomeLocked scores the outcome under the stream's reward,
// trains the engine, and advances the outcome aggregates. The outcome
// must already be validated. Callers hold st.mu.
func (st *stream) applyOutcomeLocked(arm int, x []float64, o Outcome) error {
	// Checked here, before the reward indexes the arm's hardware — the
	// engine would also reject it, but only after the reward lookup
	// would have panicked on a caller-supplied direct arm.
	if err := st.checkArmLocked(arm); err != nil {
		return err
	}
	score := st.rw.fn(o, st.engine.Hardware()[arm])
	// The outcome aggregates are snapshot state: one that overflowed
	// would fail every Save after it.
	rewardTotal, runtimeTotal := st.rewardTotal+score, st.runtimeTotal+o.Runtime
	if math.IsInf(rewardTotal, 0) || math.IsInf(runtimeTotal, 0) {
		return fmt.Errorf("%w (the stream's outcome totals would overflow)", core.ErrBadValue)
	}
	// Drift monitoring residual: the engine's estimate for the chosen
	// arm, taken before the observation refits it (an honest
	// out-of-sample error). Model-free policies have no prediction and
	// are not monitored.
	pred, havePred := 0.0, false
	if preds := st.predictLocked(x); arm < len(preds) {
		pred, havePred = preds[arm], true
	}
	if err := st.engine.Observe(arm, x, score); err != nil {
		return err
	}
	st.observed++
	st.rewardTotal, st.runtimeTotal = rewardTotal, runtimeTotal
	if o.Failed() {
		st.failures++
	}
	if havePred {
		st.observeDriftLocked(arm, score-pred)
	}
	return nil
}

// predictLocked returns the engine's per-arm estimates for x in the
// stream's reusable prediction buffer (valid until the next call), or
// nil when the engine has no models. Callers hold st.mu.
func (st *stream) predictLocked(x []float64) []float64 {
	preds, err := st.engine.PredictAllInto(x, st.predScratch[:0])
	if err != nil {
		return nil
	}
	st.predScratch = preds
	return preds
}

// observeTicketLocked redeems a ticket by sequence number, trains the
// engine under the stream's reward, and feeds the outcome to every
// shadow. The outcome must already be validated: every caller checks
// it at its public entry point, before the ticket is resolved, so a
// malformed observation (negative runtime, unknown metric) never burns
// the ticket — or, worse, corrupts the chosen arm's model. The ticket is
// removed only after the engine accepts the observation, so one the
// engine refuses (a non-finite feature product, say) leaves it pending
// for a retry. A ticket error names the ticket by its ID, rendered only
// on that path (ParseTicketID accepts only the rendered form, so it is
// the caller's ID too). Callers hold st.mu.
func (st *stream) observeTicketLocked(now time.Time, seq uint64, o Outcome) error {
	i, err := st.ledger.find(seq, now)
	if err != nil {
		return fmt.Errorf("%w (ticket %q)", err, ticketID(st.name, seq))
	}
	// x aliases the ledger slab, which nothing below writes: engines
	// never retain the features slice (window/batch paths copy before
	// buffering) and no ticket is issued under this lock.
	arm, x := int(st.ledger.slots[i].arm), st.ledger.features(i)
	if err := st.applyOutcomeLocked(arm, x, o); err != nil {
		return err
	}
	if len(st.shadows) > 0 {
		st.shadowObserveLocked(st.ledger.shadowOf(i), arm, x, o)
	}
	st.ledger.redeemed(i, now)
	return nil
}

// ObserveOutcome redeems a decision ticket with the workflow's
// structured Outcome: the arm and features stored at Recommend time are
// joined automatically, the outcome is scored by the stream's reward
// function, the stream's model for that arm is refit on the score, and
// ε decays. Each ticket can be observed exactly once; a malformed
// outcome is rejected with ErrBadOutcome without burning the ticket.
//
// The outcome is validated before the ticket is resolved, so a
// malformed observation reports ErrBadOutcome whatever the state of
// its ticket — the same precedence as every other observe path. It is
// ParseTicketID plus the redeem behind ObserveSeq.
func (s *Service) ObserveOutcome(ticketID string, o Outcome) error {
	if err := validateOutcome(o); err != nil {
		return err
	}
	name, seq, err := ParseTicketID(ticketID)
	if err != nil {
		return err
	}
	return s.redeem(name, seq, o)
}

// Observe redeems a decision ticket with the workflow's measured
// runtime — ObserveOutcome with the scalar mapped to the default
// Outcome, kept for pre-Outcome callers.
func (s *Service) Observe(ticketID string, runtime float64) error {
	return s.ObserveOutcome(ticketID, Outcome{Runtime: runtime})
}

// observeBatch redeems many tickets on the named stream under one hold
// of its lock. Failed observations do not abort the rest: the returned
// slice has one entry per input observation, nil when it was applied
// and its error otherwise.
//
// Each observation is checked before the stream is resolved, in the
// order every observe path keeps: outcome (ErrBadOutcome), ticket ID
// (ErrBadTicket), then the ticket's stream, which must be name. So a
// malformed observation fails its index with ErrBadOutcome whatever its
// ticket, and a ticket of another stream fails its own index without
// reaching that stream (pinned by TestObserveErrorConsistency).
func (s *Service) observeBatch(name string, obs []ticketObservation) (applied int, errs []error) {
	errs = make([]error, len(obs))
	outcomes := make([]Outcome, len(obs))
	seqs := make([]uint64, len(obs))
	for i, ob := range obs {
		o, err := observedOutcome(ob.Runtime, ob.Outcome)
		var owner string
		if err == nil {
			owner, seqs[i], err = ParseTicketID(ob.TicketID)
		}
		if err == nil && owner != name {
			err = fmt.Errorf("ticket %q belongs to stream %q, not %q", ob.TicketID, owner, name)
		}
		outcomes[i], errs[i] = o, err
	}
	st, err := s.stream(name)
	if err != nil {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		return 0, errs
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	now := s.now()
	for i := range obs {
		if errs[i] != nil {
			continue
		}
		if errs[i] = st.observeTicketLocked(now, seqs[i], outcomes[i]); errs[i] == nil {
			applied++
		}
	}
	return applied, errs
}

// ObserveDirectOutcome trains the named stream from an (arm, features,
// Outcome) triple the caller tracked itself — the classic
// single-recommender Observe, bypassing the ticket ledger, scored by
// the stream's reward function. Shadows see the round as one unit:
// each selects on x, is scored against arm, and learns from its own
// reward of the same Outcome.
func (s *Service) ObserveDirectOutcome(name string, arm int, x []float64, o Outcome) error {
	return s.observeDirect(name, arm, x, nil, o)
}

// observeDirect is ObserveDirectOutcome for the raw vector x, or, when
// ctx is non-nil, for that named context: it is validated and encoded
// against the stream's schema (advancing its normalization statistics,
// exactly as the matching RecommendCtx would have) before training the
// engine. The outcome, the features and the arm are checked first, so a
// rejected observe advances no statistic.
func (s *Service) observeDirect(name string, arm int, x []float64, ctx *schema.Context, o Outcome) error {
	if err := validateOutcome(o); err != nil {
		return err
	}
	if ctx == nil {
		if err := checkFeatures(x); err != nil {
			return err
		}
	}
	st, err := s.stream(name)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if ctx != nil {
		if err := st.checkArmLocked(arm); err != nil {
			return err
		}
		if x, err = st.encodeLocked(*ctx); err != nil {
			return err
		}
	}
	if err := st.applyOutcomeLocked(arm, x, o); err != nil {
		return err
	}
	if len(st.shadows) > 0 {
		st.shadowObserveLocked(st.shadowRecommendLocked(x), arm, x, o)
	}
	return nil
}

// --- read-only per-stream queries ------------------------------------

// Exploit returns the best-model selection for x on the named stream,
// without consuming exploration randomness or ledger space where the
// stream's policy supports that (see Engine.Exploit).
func (s *Service) Exploit(name string, x []float64) (int, error) {
	if err := checkFeatures(x); err != nil {
		return 0, err
	}
	st, err := s.stream(name)
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	arm, err := st.engine.Exploit(x)
	if err != nil {
		return 0, err
	}
	if !st.life.AllActive() && !st.life.Servable(arm) {
		d := core.Decision{Arm: arm}
		st.rerouteLocked(&d, x)
		arm = d.Arm
	}
	return arm, nil
}

// PredictAll returns the per-arm runtime estimates for x on the named
// stream, or ErrUnsupported when the stream's policy has no predictive
// model.
func (s *Service) PredictAll(name string, x []float64) ([]float64, error) {
	if err := checkFeatures(x); err != nil {
		return nil, err
	}
	st, err := s.stream(name)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.engine.PredictAllInto(x, make([]float64, 0, len(st.armLabels)))
}

// PredictWithCI returns per-arm estimates with prediction intervals, or
// ErrUnsupported when the stream's policy does not provide intervals
// (only Algorithm 1 streams do).
func (s *Service) PredictWithCI(name string, x []float64, z float64) ([]core.Interval, error) {
	if err := checkFeatures(x); err != nil {
		return nil, err
	}
	st, err := s.stream(name)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	ci, ok := st.engine.(CIProvider)
	if !ok {
		return nil, fmt.Errorf("%w (%s)", ErrUnsupported, st.engine.Kind())
	}
	return ci.PredictWithCI(x, z)
}

// Model returns a snapshot of one arm's learned linear model, or
// ErrUnsupported when the stream's policy has no per-arm linear models.
func (s *Service) Model(name string, arm int) (regress.Model, error) {
	st, err := s.stream(name)
	if err != nil {
		return regress.Model{}, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.engine.Model(arm)
}

// infoLocked summarises the stream as of now, sweeping tickets past
// their TTL first so Pending and Expired are current. Callers hold st.mu.
func (st *stream) infoLocked(now time.Time) StreamInfo {
	st.ledger.sweep(now)
	// The schema is cloned because the caller marshals the info after
	// the stream lock is released, while Encode keeps mutating the live
	// normalization statistics.
	var sch *schema.Schema
	if st.schemaDeclared {
		sch = st.sch.Clone()
	}
	return StreamInfo{
		Name:         st.name,
		Policy:       st.engine.Kind(),
		Hardware:     st.engine.Hardware().Names(),
		Dim:          st.engine.Dim(),
		Schema:       sch,
		Round:        st.engine.Round(),
		Epsilon:      st.engine.Epsilon(),
		Pending:      st.ledger.len(),
		Issued:       st.issued,
		Observed:     st.observed,
		Evicted:      st.ledger.evicted,
		Expired:      st.ledger.expired,
		Reward:       st.rw.spec,
		RewardTotal:  st.rewardTotal,
		RuntimeTotal: st.runtimeTotal,
		Failures:     st.failures,
		Adapt:        st.adapt,
		DriftEvents:  st.driftEventsLocked(),
		DriftByArm:   st.driftByArmLocked(),
		Shadows:      st.shadowsInfoLocked(),
		ArmStates:    st.armStatesLocked(),
	}
}

// StreamInfo returns a point-in-time summary of one stream: every
// field is read under one hold of the stream's lock.
func (s *Service) StreamInfo(name string) (StreamInfo, error) {
	st, err := s.stream(name)
	if err != nil {
		return StreamInfo{}, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.infoLocked(s.now()), nil
}

// Stats summarises every stream (sorted by name) plus service totals.
// Each stream is summarised under its own lock; streams created or
// removed concurrently may or may not appear.
func (s *Service) Stats() Stats {
	out := Stats{Streams: []StreamInfo{}} // [] not null in JSON when empty
	now := s.now()
	for _, st := range s.allStreams() {
		st.mu.Lock()
		info := st.infoLocked(now)
		st.mu.Unlock()
		out.Streams = append(out.Streams, info)
		out.TotalIssued += info.Issued
		out.TotalObserved += info.Observed
		out.TotalPending += info.Pending
		out.TotalReward += info.RewardTotal
		out.TotalRuntime += info.RuntimeTotal
		out.TotalFailures += info.Failures
		out.TotalDriftEvents += info.DriftEvents
	}
	return out
}

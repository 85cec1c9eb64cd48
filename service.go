package banditware

import (
	"io"
	"net/http"

	"banditware/internal/serve"
)

// Service is the concurrent multi-stream serving layer: a registry of
// named recommender streams (one per application or workflow class,
// each with its own hardware set, feature dimension, and options),
// sharded with per-stream locks so independent streams never contend.
//
// Recommend returns a decision Ticket held in a bounded pending ledger;
// Observe(ticketID, runtime) joins the stored features and arm
// automatically — modeling real deployments where a recommendation is
// issued long before its runtime is observed. See DESIGN.md §Service
// and ServiceHandler for the HTTP front-end (`banditware serve`).
type Service = serve.Service

// ServiceOptions configures service-wide defaults (ledger capacity,
// ticket TTL, clock).
type ServiceOptions = serve.ServiceOptions

// StreamConfig describes one recommender stream: hardware set, feature
// dimension, decision policy (Algorithm 1 by default, any PolicySpec
// type otherwise), reward function (runtime by default, any RewardSpec
// type otherwise), Algorithm 1 options, and ledger overrides.
type StreamConfig = serve.StreamConfig

// PolicySpec selects and parameterises a stream's (or shadow's)
// decision policy. The zero value selects the paper's Algorithm 1; the
// alternatives are the internal/policy bandits (LinUCB, linear Thompson
// sampling, fixed ε-greedy, greedy, softmax, random). In JSON a spec may
// be a bare type string ("linucb") or an object with parameters.
type PolicySpec = serve.PolicySpec

// Engine is the pluggable decision core a stream serves from. Algorithm
// 1 and every internal/policy.Policy adapt to it; implementations need
// no internal locking because the owning stream serialises access.
type Engine = serve.Engine

// Outcome is the structured observation of one completed workflow run:
// measured runtime plus optional success/failure and named metrics
// (memory_gb, energy_joules, cost_usd, queue_seconds). Outcome{Runtime:
// rt} reproduces the scalar observation exactly; Service.Observe maps
// to it, so pre-Outcome callers are unchanged.
type Outcome = serve.Outcome

// RewardSpec selects and parameterises a stream's (or shadow's) reward
// function — how an observed Outcome plus the chosen arm's hardware
// collapses to the scalar the engine learns from (lower is better,
// runtime-denominated). The zero value is the runtime reward (the
// paper's Algorithm 1 signal); cost_weighted adds λ·Cost(hw) — the
// paper's runtime-vs-resource-waste tradeoff — deadline grades an SLO
// miss, and failure_penalty prices failed runs. In JSON a spec may be a
// bare type string ("cost_weighted") or an object with parameters.
type RewardSpec = serve.RewardSpec

// Canonical reward types for RewardSpec.Type and StreamInfo.Reward.
const (
	RewardRuntime        = serve.RewardRuntime
	RewardCostWeighted   = serve.RewardCostWeighted
	RewardDeadline       = serve.RewardDeadline
	RewardFailurePenalty = serve.RewardFailurePenalty
	RewardQueueWeighted  = serve.RewardQueueWeighted
)

// AdaptSpec selects and parameterises a stream's adaptation to
// non-stationary environments — how its models forget (mode "none",
// "forgetting", or "window") and how the stream responds to online
// drift detections (on_drift "observe" or "reset", plus Page-Hinkley
// detector tuning). The zero value is mode "none" with observe-only
// detection: infinite-horizon learning, exactly the pre-adaptation
// behaviour. In JSON a spec may be a bare mode string ("forgetting")
// or an object with parameters.
type AdaptSpec = serve.AdaptSpec

// Canonical adaptation modes for AdaptSpec.Mode and the on-drift
// responses for AdaptSpec.OnDrift.
const (
	AdaptNone       = serve.AdaptNone
	AdaptForgetting = serve.AdaptForgetting
	AdaptWindow     = serve.AdaptWindow
	DriftObserve    = serve.DriftObserve
	DriftReset      = serve.DriftReset
)

// DriftInfo is a point-in-time summary of one stream's online drift
// monitoring: the adaptation spec, total detections and auto-resets,
// and each arm's live Page-Hinkley detector state (Service.Drift, or
// GET /v1/streams/{name}/drift over HTTP).
type DriftInfo = serve.DriftInfo

// ArmDrift is one arm's drift-monitoring state inside DriftInfo.
type ArmDrift = serve.ArmDrift

// ShadowInfo summarises one shadow policy's live evaluation counters:
// decisions, observations, agreements with the primary, the
// replay-style matched-runtime total, and the model-estimated
// cumulative regret.
type ShadowInfo = serve.ShadowInfo

// ShadowConfig describes one shadow policy — name, policy, and an
// optional reward of its own (nil inherits the stream's) — for
// StreamConfig.Shadows and Service.AttachShadow.
type ShadowConfig = serve.ShadowConfig

// Canonical policy types for PolicySpec.Type and StreamInfo.Policy.
const (
	PolicyAlgorithm1 = serve.PolicyAlgorithm1
	PolicyLinUCB     = serve.PolicyLinUCB
	PolicyLinTS      = serve.PolicyLinTS
	PolicyEpsGreedy  = serve.PolicyEpsGreedy
	PolicyGreedy     = serve.PolicyGreedy
	PolicySoftmax    = serve.PolicySoftmax
	PolicyRandom     = serve.PolicyRandom
)

// ArmAdd describes one runtime arm addition for Service.AddArm: the
// new hardware configuration, the warm-start mode ("", "cold",
// "pooled", or "nearest") with its donor weight, and whether the arm
// starts in the trial state (learning but serving no live traffic
// until promoted). See DESIGN.md §Arm-set elasticity.
type ArmAdd = serve.ArmAdd

// ArmInfo is one arm's listing entry from Service.Arms: index,
// hardware label, and lifecycle status (active, trial, draining).
type ArmInfo = serve.ArmInfo

// Ticket records one issued recommendation; its ID redeems it via
// Service.Observe.
type Ticket = serve.Ticket

// StreamInfo is a point-in-time summary of one stream.
type StreamInfo = serve.StreamInfo

// ServiceStats summarises every stream plus service totals.
type ServiceStats = serve.Stats

// Service errors, re-exported for errors.Is checks.
var (
	ErrStreamExists   = serve.ErrStreamExists
	ErrStreamNotFound = serve.ErrStreamNotFound
	ErrBadStreamName  = serve.ErrBadStreamName
	ErrTicketNotFound = serve.ErrTicketNotFound
	ErrTicketExpired  = serve.ErrTicketExpired
	ErrBadTicket      = serve.ErrBadTicket
	ErrUnknownPolicy  = serve.ErrUnknownPolicy
	ErrUnsupported    = serve.ErrUnsupported
	ErrShadowExists   = serve.ErrShadowExists
	ErrShadowNotFound = serve.ErrShadowNotFound
	// ErrBadOutcome reports an Outcome that failed validation (negative
	// or non-finite runtime, unknown metric, negative metric value);
	// outcomes are validated before a ticket is redeemed, so a bad
	// outcome never burns the ticket. ErrBadReward reports a RewardSpec
	// no reward function accepts. ErrBadAdapt reports an AdaptSpec no
	// adaptation mode accepts (or one the stream's policy cannot honour).
	ErrBadOutcome = serve.ErrBadOutcome
	ErrBadReward  = serve.ErrBadReward
	ErrBadAdapt   = serve.ErrBadAdapt
	// Arm-lifecycle errors: ErrArmNotFound reports an arm index outside
	// the stream's current set; ErrArmLifecycle a transition the arm's
	// status does not allow (retiring an active arm, draining the last
	// active arm); ErrBadArmRequest a semantically invalid arm request
	// (unknown warm mode, duplicate hardware name, out-of-range weight).
	ErrArmNotFound   = serve.ErrArmNotFound
	ErrArmLifecycle  = serve.ErrArmLifecycle
	ErrBadArmRequest = serve.ErrBadArmRequest
)

// NewService constructs an empty serving layer. Register streams with
// CreateStream, then drive them with Recommend/Observe (ticket flow),
// their RecommendInto/ObserveSeq forms (zero-allocation ticket flow), or
// ObserveDirectOutcome (caller-tracked flow). The HTTP batch routes
// (ServiceHandler) issue and redeem many tickets of one stream per
// request.
func NewService(opts ServiceOptions) *Service { return serve.NewService(opts) }

// LoadService restores a service from a snapshot written by
// Service.Save — the current version-7 envelope (arm lifecycle states)
// or any earlier envelope version
// (6: fleet-merge bookkeeping, 5: adaptation specs and drift-detector
// state, 4: reward specs and outcome aggregates, 3: feature schemas,
// 2: policy-typed streams and shadows, 1: pre-policy). It also accepts
// the legacy single-recommender format written by Recommender.Save,
// restoring it as stream "default".
func LoadService(r io.Reader) (*Service, error) {
	return serve.Load(r, ServiceOptions{})
}

// LoadServiceOptions is LoadService with explicit service defaults
// (ledger capacity, TTL, clock) applied to the restored streams'
// unset fields.
func LoadServiceOptions(r io.Reader, opts ServiceOptions) (*Service, error) {
	return serve.Load(r, opts)
}

// ServiceHandler returns the HTTP/JSON front-end for a service: stream
// management under /v1/streams (including per-stream policy selection
// and shadow attachment), the recommend/observe serving path (single
// and batch), and /v1/stats. `banditware serve` mounts exactly this
// handler; docs/API.md is the route-by-route reference.
func ServiceHandler(svc *Service) http.Handler { return serve.NewHandler(svc) }

// NewServiceServer wraps ServiceHandler(svc) in an http.Server
// hardened against slow or wedged clients: read-header, whole-read,
// write, and idle timeouts plus a header-size cap are all bounded.
// `banditware serve` and the bwload self-hosted HTTP target both run
// exactly this server, so load-test numbers measure the production
// configuration. Callers needing different limits can adjust the
// returned server before Serve.
func NewServiceServer(svc *Service) *http.Server {
	return serve.NewServer(serve.NewHandler(svc))
}

// ParseTicketID splits a decision-ticket ID into its stream name and
// per-stream sequence number.
func ParseTicketID(id string) (stream string, seq uint64, err error) {
	return serve.ParseTicketID(id)
}

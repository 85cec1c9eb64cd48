package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"sort"
	"time"

	"banditware/internal/armset"
	"banditware/internal/core"
	"banditware/internal/drift"
	"banditware/internal/schema"
)

// Snapshot wire format.
//
//   - Version 1 (PR 1) wrapped each stream's Algorithm 1 bandit state
//     (the legacy core format, embedded verbatim as raw JSON in the
//     "bandit" field) together with its ledger configuration, counters,
//     and pending tickets.
//   - Version 2 generalises the stream payload to any engine: "policy"
//     names the engine kind, "engine" carries its state (for Algorithm 1
//     streams these are exactly the version-1 bandit bytes), and streams
//     may carry shadow policies and per-ticket shadow selections.
//   - Version 3 adds the optional per-stream "schema" field: the
//     stream's declared feature schema including its live normalization
//     statistics (internal/schema wire form), so a restored stream
//     validates, encodes, and normalizes contexts exactly as before the
//     snapshot. Streams without a declared schema omit the field, so a
//     schemaless v3 stream body is byte-identical to its v2 form.
//   - Version 4 adds the reward pipeline: an optional per-stream (and
//     per-shadow) "reward" field carrying the canonical RewardSpec, plus
//     outcome aggregates ("reward_total", "runtime_total", "failures";
//     shadows also persist "matched_reward_total"). Streams on the
//     default runtime reward omit the spec, shadows that inherited the
//     stream's reward omit theirs, and all aggregates are omitted when
//     zero — so a default-reward v4 stream body freshly loaded from a
//     v3 file re-saves byte-identically to its v3 form.
//   - Version 5 adds non-stationary serving: an optional per-stream
//     "adapt" field carrying the canonical AdaptSpec (omitted for the
//     default mode-"none"/observe-only spec) and an optional "drift"
//     block persisting the per-arm Page-Hinkley detector states and the
//     auto-reset counter (omitted while every detector is pristine).
//     Engine-side adaptation state — forgetting factors, sliding-window
//     buffers — travels inside the engine payloads (core Options /
//     policy.State), so a default-adaptation stream freshly loaded from
//     a v4 file re-saves byte-identically to its v4 form.
//   - Version 6 adds fleet replication (internal/dist): an optional
//     per-stream "dist" block persisting the foreign contributions the
//     stream absorbed from peers via delta merges (per-arm sufficient
//     statistics, rounds, counters, drift counts — see delta.go), and
//     a sibling *delta envelope* sharing this format name and version
//     but marked "delta": true, carrying per-stream additive changes
//     instead of full state. Load rejects delta envelopes (ApplyDelta
//     consumes them); the dist block is omitted until a stream has
//     merged foreign state — so a single-node v5 stream body re-saves
//     byte-identically to its v5 form.
//   - Version 7 adds arm-set elasticity: an optional per-stream "arms"
//     block persisting the per-arm lifecycle statuses (omitted while
//     every arm is active) and the delta-sync arm generations (omitted
//     while no arm was ever reset). The block is omitted in the steady
//     state, so a static v6 stream body re-saves byte-identically to
//     its v6 form. Version-7 files written before the recommendation
//     cache was removed may carry a per-stream "cache" block; Load
//     ignores it, as it ignores any field it does not know.
//
// Load reads versions 1–7 plus the pre-envelope legacy
// single-recommender format; Save always writes the current version.
const (
	snapshotFormat  = "banditware-service"
	snapshotVersion = 7
)

type pendingSnap struct {
	ID         string         `json:"id"`
	Seq        uint64         `json:"seq"`
	Arm        int            `json:"arm"`
	Features   []float64      `json:"features"`
	IssuedAtNS int64          `json:"issued_at_ns"`
	ShadowArms map[string]int `json:"shadow_arms,omitempty"`
}

type shadowSnap struct {
	Name   string          `json:"name"`
	Policy string          `json:"policy"`
	Engine json.RawMessage `json:"engine"`
	// Reward is the shadow's own reward spec (version 4+); omitted when
	// the shadow inherited the stream's reward, which it re-inherits on
	// load.
	Reward         *RewardSpec `json:"reward,omitempty"`
	Decisions      uint64      `json:"decisions"`
	Observations   uint64      `json:"observations"`
	Agreements     uint64      `json:"agreements"`
	MatchedRuntime float64     `json:"matched_runtime_total"`
	MatchedReward  float64     `json:"matched_reward_total,omitempty"`
	RewardTotal    float64     `json:"reward_total,omitempty"`
	EstRegret      float64     `json:"estimated_regret"`
}

type streamSnap struct {
	Name string `json:"name"`
	// Policy and Engine are the version-2 engine payload; Bandit is the
	// version-1 Algorithm 1 payload. Exactly one of Engine/Bandit is
	// set, matching the envelope version.
	Policy string          `json:"policy,omitempty"`
	Engine json.RawMessage `json:"engine,omitempty"`
	Bandit json.RawMessage `json:"bandit,omitempty"`
	// Schema is the stream's declared feature schema with its live
	// normalization statistics (version 3+; absent for raw-dimension
	// streams and in older envelopes).
	Schema json.RawMessage `json:"schema,omitempty"`
	// Reward is the stream's canonical reward spec and RewardTotal /
	// RuntimeTotal / Failures its outcome aggregates (version 4+).
	// Default-reward streams omit the spec; zero aggregates are omitted
	// — so a stream loaded from a v3 file re-saves byte-identically.
	Reward       *RewardSpec `json:"reward,omitempty"`
	RewardTotal  float64     `json:"reward_total,omitempty"`
	RuntimeTotal float64     `json:"runtime_total,omitempty"`
	Failures     uint64      `json:"failures,omitempty"`
	// Adapt is the stream's canonical adaptation spec and Drift its
	// per-arm detector states plus auto-reset counter (version 5+).
	// Default-adaptation streams omit the spec; the drift block is
	// omitted while every detector is pristine — so a stream loaded
	// from a v4 file re-saves byte-identically.
	Adapt *AdaptSpec      `json:"adapt,omitempty"`
	Drift json.RawMessage `json:"drift,omitempty"`
	// Dist is the stream's accumulated foreign (fleet-replicated) state
	// (version 6+); omitted until the stream has merged peer deltas.
	Dist *mergedState `json:"dist,omitempty"`
	// Arms is the stream's arm lifecycle state (version 7+); omitted in
	// the steady state (all arms active, no generation bumps).
	Arms       *armsetSnap   `json:"arms,omitempty"`
	Shadows    []shadowSnap  `json:"shadows,omitempty"`
	MaxPending int           `json:"max_pending"`
	TicketTTL  time.Duration `json:"ticket_ttl_ns"`
	NextSeq    uint64        `json:"next_seq"`
	Issued     uint64        `json:"issued"`
	Observed   uint64        `json:"observed"`
	Evicted    uint64        `json:"evicted"`
	Expired    uint64        `json:"expired"`
	Pending    []pendingSnap `json:"pending,omitempty"`
}

// driftSnap is the wire form of a stream's drift-monitoring state: one
// Page-Hinkley detector per arm (in arm order) and the auto-reset
// counter.
type driftSnap struct {
	Arms   []*drift.PageHinkley `json:"arms"`
	Resets uint64               `json:"resets,omitempty"`
}

// armsetSnap is the version-7 wire form of a stream's arm lifecycle
// state: per-arm statuses (in arm order; omitted while all active) and
// the delta-sync arm generations (omitted while all zero).
type armsetSnap struct {
	Statuses []string `json:"statuses,omitempty"`
	Gens     []uint64 `json:"gens,omitempty"`
}

type serviceSnap struct {
	Format  string       `json:"format"`
	Version int          `json:"version"`
	SavedAt time.Time    `json:"saved_at"`
	Streams []streamSnap `json:"streams"`
}

// Save serialises the whole service — every stream's engine state,
// shadow policies and counters, ε, round counter, ledger counters, and
// pending tickets — into one versioned JSON envelope. The snapshot is a
// consistent point in time: all stream locks are held (in name order)
// while state is captured, so no observation is split across the cut.
// Streams registered while Save runs may be missed; removal of captured
// streams is not.
func (s *Service) Save(w io.Writer) error {
	streams := s.allStreams() // sorted by name: fixed lock order
	snap := serviceSnap{
		Format:  snapshotFormat,
		Version: snapshotVersion,
		SavedAt: s.now(),
		Streams: make([]streamSnap, 0, len(streams)),
	}
	for _, st := range streams {
		st.mu.Lock()
	}
	var err error
	for _, st := range streams {
		var ss streamSnap
		ss, err = st.snapshotLocked(snap.SavedAt)
		if err != nil {
			break
		}
		snap.Streams = append(snap.Streams, ss)
	}
	for i := len(streams) - 1; i >= 0; i-- {
		streams[i].mu.Unlock()
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// snapshotLocked captures the stream's state as of now. Tickets past
// their TTL at now are swept first, so the snapshot neither counts them
// as pending nor writes them out. Callers hold st.mu.
func (st *stream) snapshotLocked(now time.Time) (streamSnap, error) {
	st.ledger.sweep(now)
	var buf bytes.Buffer
	if err := st.engine.SaveState(&buf); err != nil {
		return streamSnap{}, fmt.Errorf("serve: snapshotting stream %q: %w", st.name, err)
	}
	var schemaRaw json.RawMessage
	if st.schemaDeclared {
		// Marshalled under the stream lock: Encode mutates the schema's
		// normalization statistics, and the envelope encode happens after
		// the locks are released.
		raw, err := json.Marshal(st.sch)
		if err != nil {
			return streamSnap{}, fmt.Errorf("serve: snapshotting schema of stream %q: %w", st.name, err)
		}
		schemaRaw = raw
	}
	var rewardSpec *RewardSpec
	if !st.rw.spec.IsDefault() {
		spec := st.rw.spec
		rewardSpec = &spec
	}
	var adaptSpec *AdaptSpec
	if !st.adapt.IsDefault() {
		spec := st.adapt
		adaptSpec = &spec
	}
	var driftRaw json.RawMessage
	touched := st.driftResets > 0
	for _, d := range st.detectors {
		touched = touched || d.Touched()
	}
	if touched {
		// Marshalled under the stream lock: Add mutates the detectors,
		// and the envelope encode happens after the locks are released.
		raw, err := json.Marshal(driftSnap{Arms: st.detectors, Resets: st.driftResets})
		if err != nil {
			return streamSnap{}, fmt.Errorf("serve: snapshotting drift state of stream %q: %w", st.name, err)
		}
		driftRaw = raw
	}
	ss := streamSnap{
		Name:         st.name,
		Policy:       st.engine.Kind(),
		Engine:       json.RawMessage(buf.Bytes()),
		Schema:       schemaRaw,
		Reward:       rewardSpec,
		RewardTotal:  st.rewardTotal,
		RuntimeTotal: st.runtimeTotal,
		Failures:     st.failures,
		Adapt:        adaptSpec,
		Drift:        driftRaw,
		Dist:         st.distSnapLocked(),
		Arms:         st.armsetSnapLocked(),
		MaxPending:   st.ledger.cap,
		TicketTTL:    st.ledger.ttl,
		NextSeq:      st.nextSeq,
		Issued:       st.issued,
		Observed:     st.observed,
		Evicted:      st.ledger.evicted,
		Expired:      st.ledger.expired,
	}
	for _, sh := range st.shadows {
		var sbuf bytes.Buffer
		if err := sh.engine.SaveState(&sbuf); err != nil {
			return streamSnap{}, fmt.Errorf("serve: snapshotting shadow %q of stream %q: %w", sh.name, st.name, err)
		}
		var shReward *RewardSpec
		if !sh.rwInherited {
			spec := sh.rw.spec
			shReward = &spec
		}
		ss.Shadows = append(ss.Shadows, shadowSnap{
			Name:           sh.name,
			Policy:         sh.engine.Kind(),
			Engine:         json.RawMessage(sbuf.Bytes()),
			Reward:         shReward,
			Decisions:      sh.decisions,
			Observations:   sh.observations,
			Agreements:     sh.agreements,
			MatchedRuntime: sh.matchedRuntime,
			MatchedReward:  sh.matchedReward,
			RewardTotal:    sh.rewardTotal,
			EstRegret:      sh.estRegret,
		})
	}
	for p := range st.ledger.all {
		ss.Pending = append(ss.Pending, pendingSnap{
			ID:  ticketID(st.name, p.seq),
			Seq: p.seq,
			Arm: p.arm,
			// Cloned, not aliased: the JSON encode happens after the
			// stream lock is released — DetachShadow mutates the live
			// map under that lock, and the ledger reuses redeemed
			// tickets' slab rows.
			Features:   append([]float64(nil), p.features...),
			IssuedAtNS: p.issuedAtNS,
			ShadowArms: maps.Clone(p.shadowArms),
		})
	}
	return ss, nil
}

// checkPendingSnap validates one snapshot ticket against the restored
// stream: a ticket the stream could never have issued would shadow or
// orphan a live one. dup reports that the previous ticket had the same
// seq.
func (st *stream) checkPendingSnap(p pendingSnap, dup bool, nextSeq uint64) error {
	switch {
	case dup:
		return errors.New("duplicate seq")
	case p.Seq >= nextSeq:
		return fmt.Errorf("seq not below next_seq %d", nextSeq)
	case p.Arm < 0 || p.Arm >= len(st.armLabels):
		return fmt.Errorf("arm %d outside [0, %d)", p.Arm, len(st.armLabels))
	case len(p.Features) != st.ledger.dim:
		return fmt.Errorf("%d features, want %d", len(p.Features), st.ledger.dim)
	}
	return nil
}

// armsetSnapLocked returns the stream's persisted arm lifecycle state,
// or nil in the steady state (every arm active, every generation zero)
// so pre-churn stream bodies stay byte-stable across versions.
func (st *stream) armsetSnapLocked() *armsetSnap {
	var as armsetSnap
	as.Statuses = st.armStatesLocked()
	for _, g := range st.armGen {
		if g != 0 {
			as.Gens = append([]uint64(nil), st.armGen...)
			break
		}
	}
	if as.Statuses == nil && as.Gens == nil {
		return nil
	}
	return &as
}

// restoreArmsetLocked rebuilds a stream's arm lifecycle state from its
// persisted form, validating both blocks against the restored engine's
// arm count.
func (st *stream) restoreArmsetLocked(as *armsetSnap) error {
	arms := len(st.engine.Hardware())
	if len(as.Statuses) > 0 {
		if len(as.Statuses) != arms {
			return fmt.Errorf("%d statuses for %d arms", len(as.Statuses), arms)
		}
		statuses := make([]armset.Status, arms)
		active := 0
		for i, s := range as.Statuses {
			parsed, err := armset.ParseStatus(s)
			if err != nil {
				return fmt.Errorf("arm %d: %w", i, err)
			}
			statuses[i] = parsed
			if parsed == armset.Active {
				active++
			}
		}
		if active == 0 {
			return fmt.Errorf("no active arm")
		}
		st.life.Restore(statuses)
	}
	if len(as.Gens) > 0 {
		if len(as.Gens) != arms {
			return fmt.Errorf("%d arm generations for %d arms", len(as.Gens), arms)
		}
		st.armGen = append([]uint64(nil), as.Gens...)
	}
	return nil
}

// SaveStream serialises one stream's engine in its native state format —
// for Algorithm 1 streams, the legacy single-recommender format
// (core.SaveState), loadable by both the single-recommender loader and
// Load. Ticket-ledger state, shadows, and counters are not part of that
// format; use Save for a full snapshot.
func (s *Service) SaveStream(name string, w io.Writer) error {
	st, err := s.stream(name)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.engine.SaveState(w)
}

// Load restores a service from a snapshot written by Save: the current
// version-7 envelope, the earlier envelope versions (6: fleet
// replication, 5: adaptation, 4: rewards, 3: schemas, 2: policy-typed
// streams, 1: pre-policy), or — for backward
// compatibility — the legacy single-recommender state format
// (core.SaveState / Recommender.Save), which is restored as a single
// Algorithm 1 stream named "default".
func Load(r io.Reader, opts ServiceOptions) (*Service, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("serve: reading snapshot: %w", err)
	}
	var probe struct {
		Format string `json:"format"`
		Delta  bool   `json:"delta"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("serve: decoding snapshot: %w", err)
	}
	if probe.Delta {
		return nil, fmt.Errorf("%w: delta envelopes carry changes, not full state (use Service.ApplyDelta)", ErrBadDelta)
	}
	s := NewService(opts)
	if probe.Format == "" {
		// Legacy single-recommender state.
		b, err := core.LoadState(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("serve: loading legacy recommender state: %w", err)
		}
		if err := s.adoptBandit("default", b); err != nil {
			return nil, err
		}
		return s, nil
	}
	if probe.Format != snapshotFormat {
		return nil, fmt.Errorf("serve: unknown snapshot format %q", probe.Format)
	}
	var snap serviceSnap
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("serve: decoding snapshot: %w", err)
	}
	if snap.Version < 1 || snap.Version > snapshotVersion {
		return nil, fmt.Errorf("serve: unsupported snapshot version %d", snap.Version)
	}
	for _, ss := range snap.Streams {
		kind, raw := ss.Policy, ss.Engine
		if raw == nil {
			// Version 1: the Algorithm 1 state lives in "bandit".
			kind, raw = "", ss.Bandit
		}
		eng, err := restoreEngine(kind, raw)
		if err != nil {
			return nil, fmt.Errorf("serve: restoring stream %q: %w", ss.Name, err)
		}
		var sch *schema.Schema
		if ss.Schema != nil {
			sch, err = schema.Parse(ss.Schema)
			if err != nil {
				return nil, fmt.Errorf("serve: restoring schema of stream %q: %w", ss.Name, err)
			}
			if got := sch.EncodedDim(); got != eng.Dim() {
				return nil, fmt.Errorf("serve: restoring stream %q: schema encodes %d dims, engine has %d",
					ss.Name, got, eng.Dim())
			}
		}
		rw := defaultReward()
		if ss.Reward != nil {
			rw, err = compileReward(*ss.Reward)
			if err != nil {
				return nil, fmt.Errorf("serve: restoring reward of stream %q: %w", ss.Name, err)
			}
		}
		adapt := defaultAdapt()
		if ss.Adapt != nil {
			adapt, err = compileAdapt(*ss.Adapt)
			if err != nil {
				return nil, fmt.Errorf("serve: restoring adaptation of stream %q: %w", ss.Name, err)
			}
		}
		if err := s.adopt(ss.Name, eng, sch, rw, adapt, ss.MaxPending, ss.TicketTTL); err != nil {
			return nil, err
		}
		st, err := s.stream(ss.Name)
		if err != nil {
			return nil, err
		}
		if ss.Arms != nil {
			if err := st.restoreArmsetLocked(ss.Arms); err != nil {
				return nil, fmt.Errorf("serve: restoring arm state of stream %q: %w", ss.Name, err)
			}
		}
		if ss.Drift != nil {
			var ds driftSnap
			if err := json.Unmarshal(ss.Drift, &ds); err != nil {
				return nil, fmt.Errorf("serve: restoring drift state of stream %q: %w", ss.Name, err)
			}
			if len(ds.Arms) != len(st.detectors) {
				return nil, fmt.Errorf("serve: restoring drift state of stream %q: %d detectors for %d arms",
					ss.Name, len(ds.Arms), len(st.detectors))
			}
			for i, d := range ds.Arms {
				if d == nil {
					return nil, fmt.Errorf("serve: restoring drift state of stream %q: arm %d detector missing", ss.Name, i)
				}
			}
			st.detectors = ds.Arms
			st.driftResets = ds.Resets
		}
		if ss.Dist != nil {
			if err := st.restoreDistLocked(ss.Dist); err != nil {
				return nil, fmt.Errorf("serve: restoring dist state of stream %q: %w", ss.Name, err)
			}
		}
		st.nextSeq = ss.NextSeq
		st.issued = ss.Issued
		st.observed = ss.Observed
		st.rewardTotal = ss.RewardTotal
		st.runtimeTotal = ss.RuntimeTotal
		st.failures = ss.Failures
		st.ledger.evicted = ss.Evicted
		st.ledger.expired = ss.Expired
		for _, shs := range ss.Shadows {
			seng, err := restoreEngine(shs.Policy, shs.Engine)
			if err != nil {
				return nil, fmt.Errorf("serve: restoring shadow %q of stream %q: %w", shs.Name, ss.Name, err)
			}
			// A shadow without a recorded reward inherited the stream's
			// at attach time; re-inherit it (pre-v4 shadows land here).
			shRw, shInherited := st.rw, true
			if shs.Reward != nil {
				shRw, err = compileReward(*shs.Reward)
				if err != nil {
					return nil, fmt.Errorf("serve: restoring reward of shadow %q of stream %q: %w", shs.Name, ss.Name, err)
				}
				shInherited = false
			}
			st.shadows = append(st.shadows, &shadow{
				name:           shs.Name,
				engine:         seng,
				rw:             shRw,
				rwInherited:    shInherited,
				decisions:      shs.Decisions,
				observations:   shs.Observations,
				agreements:     shs.Agreements,
				matchedRuntime: shs.MatchedRuntime,
				matchedReward:  shs.MatchedReward,
				rewardTotal:    shs.RewardTotal,
				estRegret:      shs.EstRegret,
			})
		}
		pend := append([]pendingSnap(nil), ss.Pending...)
		sort.Slice(pend, func(i, j int) bool { return pend[i].Seq < pend[j].Seq })
		if len(pend) > st.ledger.cap {
			return nil, fmt.Errorf("serve: restoring stream %q: %d pending tickets exceed max_pending %d",
				ss.Name, len(pend), st.ledger.cap)
		}
		now := s.now()
		for i, p := range pend {
			if err := st.checkPendingSnap(p, i > 0 && pend[i-1].Seq == p.Seq, ss.NextSeq); err != nil {
				return nil, fmt.Errorf("serve: restoring pending ticket seq %d of stream %q: %w", p.Seq, ss.Name, err)
			}
			st.ledger.restore(p.Seq, p.Arm, p.Features, time.Unix(0, p.IssuedAtNS), p.ShadowArms, now)
		}
	}
	return s, nil
}

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"banditware/internal/core"
	"banditware/internal/regress"
)

// Delta replication (snapshot versions 6–7; the delta wire format is
// identical in both — version 7's arm lifecycle state is replica-local
// and never travels in delta envelopes).
//
// A fleet of replicas each learns on its own slice of the traffic and
// periodically exchanges *deltas*: the additive change in per-arm
// sufficient statistics (internal/regress.Sufficient), decay rounds,
// outcome counters, and drift detections since the last successful
// sync with that peer. Because the linear-model state is a plain sum
// of per-observation terms, merging every replica's deltas reproduces
// — exactly, up to float re-factoring — the model a single node would
// have learned from the union of the traffic.
//
// The echo problem: a replica's stream state mixes its own traffic
// with contributions merged from peers, and a naive "current minus
// last-shipped" delta would re-broadcast those peer contributions,
// double-counting them at the third replica. Each stream therefore
// tracks its cumulative *foreign* contributions (mergedState, updated
// by ApplyDelta and persisted as the snapshot's "dist" block) so delta
// extraction can ship only the local share:
//
//	local = current − prior − merged
//	delta to peer P = local − (local at last commit to P)
//
// Per-peer baselines live in a SyncState; CaptureDelta/Commit are a
// two-phase pair so a delta that fails to reach its peer is simply
// re-extracted next round (exactly-once effect without retry buffers).
//
// Streams whose state is not a pure sum — sliding windows, exponential
// forgetting, batch refit — are not replicated; CaptureDelta reports
// them in Skipped and ApplyDelta rejects deltas aimed at them.
var (
	// ErrNotMergeable reports a delta operation on a stream whose
	// engine state is not additive (windowed, forgetting, batch-refit).
	ErrNotMergeable = errors.New("serve: stream is not delta-mergeable")
	// ErrBadDelta reports a malformed or mismatched delta envelope.
	ErrBadDelta = errors.New("serve: invalid delta envelope")
)

// counts is a stream's additive scalar state: ε-decay rounds plus the
// outcome counters. The stream's live state, its foreign share, a peer's
// baseline and the delta on the wire each carry one.
type counts struct {
	Rounds       int     `json:"rounds,omitempty"`
	Issued       uint64  `json:"issued,omitempty"`
	Observed     uint64  `json:"observed,omitempty"`
	RewardTotal  float64 `json:"reward_total,omitempty"`
	RuntimeTotal float64 `json:"runtime_total,omitempty"`
	Failures     uint64  `json:"failures,omitempty"`
}

// plus returns c + d. An overflowing sum wraps Rounds negative or takes
// a total to ±Inf, which finite reports.
func (c counts) plus(d counts) counts {
	return counts{
		Rounds:       c.Rounds + d.Rounds,
		Issued:       c.Issued + d.Issued,
		Observed:     c.Observed + d.Observed,
		RewardTotal:  c.RewardTotal + d.RewardTotal,
		RuntimeTotal: c.RuntimeTotal + d.RuntimeTotal,
		Failures:     c.Failures + d.Failures,
	}
}

// since returns c − base with the rounds and counters clamped at zero:
// a stale baseline (a stream deleted and recreated under its name)
// ships nothing negative, and the next commit heals it.
func (c counts) since(base counts) counts {
	return counts{
		Rounds:       max(c.Rounds-base.Rounds, 0),
		Issued:       c.Issued - min(c.Issued, base.Issued),
		Observed:     c.Observed - min(c.Observed, base.Observed),
		RewardTotal:  c.RewardTotal - base.RewardTotal,
		RuntimeTotal: c.RuntimeTotal - base.RuntimeTotal,
		Failures:     c.Failures - min(c.Failures, base.Failures),
	}
}

// finite reports rounds in [0, core.MaxLoadedRound] and finite totals:
// what Save can encode and Load accepts.
func (c counts) finite() bool {
	return c.Rounds >= 0 && c.Rounds <= core.MaxLoadedRound &&
		!math.IsNaN(c.RewardTotal) && !math.IsInf(c.RewardTotal, 0) &&
		!math.IsNaN(c.RuntimeTotal) && !math.IsInf(c.RuntimeTotal, 0)
}

// countsLocked returns the stream's live counts. Callers hold st.mu.
func (st *stream) countsLocked() counts {
	return counts{
		Rounds:       st.engine.Round(),
		Issued:       st.issued,
		Observed:     st.observed,
		RewardTotal:  st.rewardTotal,
		RuntimeTotal: st.runtimeTotal,
		Failures:     st.failures,
	}
}

// streamDelta is the wire form of one stream's additive change: the
// per-arm sufficient-statistic deltas (index-aligned with the arm set;
// canonical-zero entries mark unchanged arms), the ε-decay rounds to
// absorb, the outcome counter increments, and per-arm drift detections.
type streamDelta struct {
	Name   string               `json:"name"`
	Policy string               `json:"policy"`
	Dim    int                  `json:"dim"`
	Arms   []regress.Sufficient `json:"arms,omitempty"`
	counts
	DriftByArm []uint64 `json:"drift_by_arm,omitempty"`
}

// deltaSnap is the delta envelope. It shares the snapshot format name
// and version so fleet members negotiate one compatibility story, and
// carries "delta": true so a delta can never be mistaken for a full
// snapshot (Load rejects it; ApplyDelta requires it).
type deltaSnap struct {
	Format  string        `json:"format"`
	Version int           `json:"version"`
	Delta   bool          `json:"delta"`
	SavedAt int64         `json:"saved_at_ns"`
	Streams []streamDelta `json:"streams"`
}

// mergedState accumulates the foreign contributions a stream has
// absorbed via ApplyDelta (and, after ImportSnapshot, the imported
// state itself), so delta extraction can subtract them out. DriftBase
// marks detector counts that arrived with an imported snapshot — they
// live inside the local detectors but are not local detections. Its
// JSON form is the snapshot's version-6 "dist" block.
type mergedState struct {
	Arms []regress.Sufficient `json:"arms,omitempty"`
	counts
	Drift     []uint64 `json:"drift,omitempty"`
	DriftBase []uint64 `json:"drift_base,omitempty"`
}

// ensureMergedLocked returns the stream's merge accumulator, creating
// an empty one shaped to the arm set on first use.
func (st *stream) ensureMergedLocked() *mergedState {
	if st.merged == nil {
		arms := len(st.engine.Hardware())
		st.merged = &mergedState{
			Arms:  make([]regress.Sufficient, arms),
			Drift: make([]uint64, arms),
		}
		for i := range st.merged.Arms {
			st.merged.Arms[i] = regress.Sufficient{Dim: st.engine.Dim()}
		}
	}
	return st.merged
}

// bumpArmGenLocked records a local arm reset: sync baselines holding
// the old generation re-anchor (ship the full post-reset state), and
// the arm's foreign contributions are gone from the model, so the
// merged accumulator is wiped too.
func (st *stream) bumpArmGenLocked(arm int) {
	if st.armGen == nil {
		st.armGen = make([]uint64, len(st.engine.Hardware()))
	}
	if arm < len(st.armGen) {
		st.armGen[arm]++
	}
	if st.merged != nil && arm < len(st.merged.Arms) {
		st.merged.Arms[arm] = regress.Sufficient{Dim: st.engine.Dim()}
	}
}

func (st *stream) armGenAt(arm int) uint64 {
	if arm < len(st.armGen) {
		return st.armGen[arm]
	}
	return 0
}

// deltaMode probes how a stream's engine replicates. A model-free
// engine (random) ships rounds and counters but no arm statistics; a
// configuration whose state is not additive is ErrNotMergeable. The
// configuration is fixed for the engine's lifetime, so one probe of arm
// 0 holds for every arm.
func deltaMode(eng Engine) (modelFree bool, err error) {
	_, err = eng.ArmLearned(0)
	switch {
	case err == nil:
		return false, nil
	case errors.Is(err, ErrUnsupported):
		return true, nil
	}
	return false, fmt.Errorf("%w: %v", ErrNotMergeable, err)
}

// peerStreamBase is one peer's acknowledged baseline for one stream:
// the local contributions (and arm reset generations, detector counts,
// counters) the peer had received as of the last committed sync.
type peerStreamBase struct {
	counts
	arms  []regress.Sufficient
	gens  []uint64
	drift []uint64
}

// SyncState tracks what one peer has already acknowledged, one per
// (replica, peer) pair. Obtain with Service.NewSyncState; it is
// advanced only by DeltaCapture.Commit and invalidated wholesale by
// ImportSnapshot (the epoch check), so a crashed sync never corrupts
// the baseline.
type SyncState struct {
	epoch   uint64
	streams map[string]*peerStreamBase
}

// NewSyncState registers a fresh per-peer sync baseline. The first
// capture against it ships each stream's full local state. States stay
// registered for the service's lifetime (a dropped peer's state is a
// few KB; fleets are small).
func (s *Service) NewSyncState() *SyncState {
	ss := &SyncState{streams: make(map[string]*peerStreamBase)}
	s.syncMu.Lock()
	s.syncStates = append(s.syncStates, ss)
	s.syncMu.Unlock()
	return ss
}

// DeltaCapture is an extracted-but-uncommitted delta: Encode ships it,
// and Commit advances the peer baseline only after the peer accepted
// it. Dropping an uncommitted capture is safe — the next capture
// re-extracts the same (plus newer) changes.
type DeltaCapture struct {
	svc     *Service
	base    *SyncState
	epoch   uint64
	snap    deltaSnap
	next    map[string]*peerStreamBase
	Skipped []string
}

// CaptureDelta extracts, for every delta-mergeable stream, the local
// change since base's last committed sync. Non-mergeable streams are
// reported in the capture's Skipped list, not replicated.
func (s *Service) CaptureDelta(base *SyncState) (*DeltaCapture, error) {
	if base == nil {
		return nil, errors.New("serve: nil sync state")
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	streams := s.allStreams()
	c := &DeltaCapture{
		svc:   s,
		base:  base,
		epoch: base.epoch,
		snap: deltaSnap{
			Format:  snapshotFormat,
			Version: snapshotVersion,
			Delta:   true,
			SavedAt: s.now().UnixNano(),
			Streams: make([]streamDelta, 0, len(streams)),
		},
		next: make(map[string]*peerStreamBase, len(streams)),
	}
	for _, st := range streams {
		st.mu.Lock()
		sd, nb, err := st.captureDeltaLocked(base.streams[st.name])
		st.mu.Unlock()
		if err != nil {
			if errors.Is(err, ErrNotMergeable) {
				c.Skipped = append(c.Skipped, st.name)
				continue
			}
			return nil, fmt.Errorf("serve: capturing delta of stream %q: %w", st.name, err)
		}
		c.next[st.name] = nb
		if sd != nil {
			c.snap.Streams = append(c.snap.Streams, *sd)
		}
	}
	return c, nil
}

// Empty reports whether the capture carries no changes (nothing to
// ship; Commit is still valid and cheap).
func (c *DeltaCapture) Empty() bool { return len(c.snap.Streams) == 0 }

// Streams returns the number of streams with changes in this capture.
func (c *DeltaCapture) Streams() int { return len(c.snap.Streams) }

// Encode writes the delta envelope as JSON.
func (c *DeltaCapture) Encode(w io.Writer) error {
	return json.NewEncoder(w).Encode(c.snap)
}

// Commit advances the peer baseline to this capture: everything it
// carried is now the peer's problem. A no-op if the service re-based
// (ImportSnapshot) since the capture was taken.
func (c *DeltaCapture) Commit() {
	c.svc.syncMu.Lock()
	defer c.svc.syncMu.Unlock()
	if c.base.epoch != c.epoch {
		return
	}
	c.base.streams = c.next
}

// captureDeltaLocked extracts this stream's change since prev (nil:
// first sync — ship everything local) and the baseline a commit should
// advance to. Returns a nil streamDelta when nothing changed.
func (st *stream) captureDeltaLocked(prev *peerStreamBase) (*streamDelta, *peerStreamBase, error) {
	modelFree, err := deltaMode(st.engine)
	if err != nil {
		return nil, nil, err
	}
	dim := st.engine.Dim()
	arms := len(st.engine.Hardware())
	m := st.merged
	if m == nil {
		m = &mergedState{} // no foreign contributions yet
	}
	pb := prev
	if pb == nil {
		pb = &peerStreamBase{}
	}
	nb := &peerStreamBase{counts: st.countsLocked().since(m.counts)}
	sd := streamDelta{Name: st.name, Policy: st.engine.Kind(), Dim: dim, counts: nb.counts.since(pb.counts)}
	changed := sd.counts != counts{}

	if !modelFree {
		nb.arms = make([]regress.Sufficient, arms)
		nb.gens = make([]uint64, arms)
		armDeltas := make([]regress.Sufficient, arms)
		anyArm := false
		for a := 0; a < arms; a++ {
			local, err := st.engine.ArmLearned(a)
			if err != nil {
				return nil, nil, err
			}
			if a < len(m.Arms) && !m.Arms[a].IsZero() {
				if local, err = local.Sub(m.Arms[a]); err != nil {
					return nil, nil, err
				}
			}
			gen := st.armGenAt(a)
			nb.arms[a], nb.gens[a] = local, gen
			d := local
			// Same generation and a sane baseline: ship the increment.
			// Otherwise the arm was reset (or the baseline belongs to a
			// different incarnation of the stream) — re-anchor by shipping
			// the full local state; peers keep their pre-reset
			// contributions (replication is grow-only).
			if a < len(pb.arms) && a < len(pb.gens) && pb.gens[a] == gen &&
				pb.arms[a].Dim == dim {
				if d, err = local.Sub(pb.arms[a]); err != nil {
					return nil, nil, err
				}
				if d.N < 0 {
					d = local
				}
			}
			// Merging a peer's delta reconstructs A from a fresh Cholesky
			// factor, so the local share picks up roundoff relative to the
			// exactly-summed merged accumulator. An observation-free delta
			// at machine precision is that residue — shipping it would keep
			// an otherwise idle fleet syncing forever.
			if negligibleResidue(d, local) {
				d = regress.Sufficient{Dim: dim}
			}
			armDeltas[a] = d
			anyArm = anyArm || !d.IsZero()
		}
		if anyArm {
			sd.Arms = armDeltas
			changed = true
		}
	}

	// Drift: ship new local detections (detector counts minus the
	// imported baseline); foreign detections live in merged.Drift and are
	// never re-shipped.
	det := make([]uint64, arms)
	for i := 0; i < arms && i < len(st.detectors); i++ {
		det[i] = st.detectors[i].Detections()
		if i < len(m.DriftBase) {
			det[i] -= min(det[i], m.DriftBase[i])
		}
	}
	nb.drift = det
	driftDelta := make([]uint64, arms)
	anyDrift := false
	for a := range det {
		var p uint64
		if a < len(pb.drift) {
			p = pb.drift[a]
		}
		if det[a] > p {
			driftDelta[a] = det[a] - p
			anyDrift = true
		}
	}
	if anyDrift {
		sd.DriftByArm = driftDelta
		changed = true
	}

	if !changed {
		return nil, nb, nil
	}
	return &sd, nb, nil
}

// negligibleResidue reports whether an arm delta carries no
// observations (N = 0) and only float residue — every entry below
// machine-precision scale relative to the arm's local statistics. A
// real observation always increments N, so an N = 0 delta with tiny
// entries can only be re-factoring roundoff.
func negligibleResidue(d, local regress.Sufficient) bool {
	if d.N != 0 {
		return false
	}
	const tol = 1e-9
	scale := 1.0
	for _, v := range local.A {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for _, v := range local.B {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for _, v := range d.A {
		if math.Abs(v) > tol*scale {
			return false
		}
	}
	for _, v := range d.B {
		if math.Abs(v) > tol*scale {
			return false
		}
	}
	return true
}

// DeltaStats summarises one ApplyDelta call.
type DeltaStats struct {
	// Streams, Arms, Rounds count what was merged: streams touched,
	// non-zero arm deltas folded in, decay rounds absorbed.
	Streams int `json:"streams"`
	Arms    int `json:"arms"`
	Rounds  int `json:"rounds"`
	// SkippedUnknown lists delta streams this replica does not serve
	// (stream sets are converging; not an error).
	SkippedUnknown []string `json:"skipped_unknown,omitempty"`
}

// ApplyDelta merges a peer's delta envelope (DeltaCapture.Encode) into
// this service. Each stream merges under its own lock, so the service
// keeps serving — and stays ready (Ready, /v1/readyz) — while the merge
// runs. Deltas for streams this replica does not serve
// are skipped and reported; a malformed or mismatched stream delta
// aborts with an error (earlier streams in the envelope stay merged —
// re-sending a delta is safe only after the underlying mismatch is
// fixed, so treat an error as a fleet misconfiguration).
func (s *Service) ApplyDelta(r io.Reader) (DeltaStats, error) {
	var stats DeltaStats
	var snap deltaSnap
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return stats, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	if snap.Format != snapshotFormat {
		return stats, fmt.Errorf("%w: format %q", ErrBadDelta, snap.Format)
	}
	if !snap.Delta {
		return stats, fmt.Errorf("%w: full snapshot envelope (use Load or ImportSnapshot)", ErrBadDelta)
	}
	// The delta wire format is unchanged between versions 6 and 7 (the
	// version-7 arm lifecycle state is replica-local and never travels
	// in delta envelopes), so a mixed-version fleet keeps syncing during
	// a rolling upgrade.
	if snap.Version != snapshotVersion && snap.Version != snapshotVersion-1 {
		return stats, fmt.Errorf("%w: version %d, this replica speaks %d", ErrBadDelta, snap.Version, snapshotVersion)
	}
	for _, sd := range snap.Streams {
		st, err := s.stream(sd.Name)
		if errors.Is(err, ErrStreamNotFound) {
			stats.SkippedUnknown = append(stats.SkippedUnknown, sd.Name)
			continue
		}
		if err != nil {
			return stats, err
		}
		st.mu.Lock()
		err = st.applyDeltaLocked(&sd, &stats)
		st.mu.Unlock()
		if err != nil {
			return stats, fmt.Errorf("serve: applying delta to stream %q: %w", sd.Name, err)
		}
		stats.Streams++
	}
	return stats, nil
}

func (st *stream) applyDeltaLocked(sd *streamDelta, stats *DeltaStats) error {
	modelFree, err := deltaMode(st.engine)
	if err != nil {
		return err
	}
	dim := st.engine.Dim()
	arms := len(st.engine.Hardware())
	var foreign counts
	if st.merged != nil {
		foreign = st.merged.counts
	}
	live := st.countsLocked()
	next := live.plus(sd.counts)
	switch {
	case sd.Policy != st.engine.Kind():
		return fmt.Errorf("%w: delta for policy %q, stream runs %q", ErrBadDelta, sd.Policy, st.engine.Kind())
	case sd.Dim != dim:
		return fmt.Errorf("%w: delta dimension %d, stream has %d", ErrBadDelta, sd.Dim, dim)
	case sd.Rounds < 0:
		return fmt.Errorf("%w: negative rounds %d", ErrBadDelta, sd.Rounds)
	case len(sd.Arms) > 0 && len(sd.Arms) != arms:
		return fmt.Errorf("%w: %d arm deltas for %d arms", ErrBadDelta, len(sd.Arms), arms)
	case len(sd.Arms) > 0 && modelFree:
		return fmt.Errorf("%w: arm deltas for model-free policy %q", ErrBadDelta, sd.Policy)
	case len(sd.DriftByArm) > 0 && len(sd.DriftByArm) != arms:
		return fmt.Errorf("%w: %d drift counts for %d arms", ErrBadDelta, len(sd.DriftByArm), arms)
	case sd.Rounds > max(core.MaxRounds-live.Rounds, 0):
		// AbsorbRounds refuses to take the round counter past
		// core.MaxRounds. A stream that local observes took past it
		// still merges arm statistics, but no more rounds.
		return fmt.Errorf("%w: %d rounds would take the round counter past %d", ErrBadDelta, sd.Rounds, core.MaxRounds)
	case !next.finite() || !foreign.plus(sd.counts).finite():
		// Save could not encode a total past ±MaxFloat64.
		return fmt.Errorf("%w: rounds or totals overflow the stream's", ErrBadDelta)
	}
	m := st.ensureMergedLocked()
	for a, d := range sd.Arms {
		if d.IsZero() {
			continue
		}
		if err := st.engine.MergeArmDelta(a, d); err != nil {
			return err
		}
		sum, err := m.Arms[a].Add(d)
		if err != nil {
			return err
		}
		m.Arms[a] = sum
		stats.Arms++
	}
	if sd.Rounds > 0 {
		if err := st.engine.AbsorbRounds(sd.Rounds); err != nil {
			return err
		}
		stats.Rounds += sd.Rounds
	}
	m.counts = m.counts.plus(sd.counts)
	st.issued, st.observed, st.failures = next.Issued, next.Observed, next.Failures
	st.rewardTotal, st.runtimeTotal = next.RewardTotal, next.RuntimeTotal
	for a, n := range sd.DriftByArm {
		if a < len(m.Drift) {
			m.Drift[a] += n
		}
	}
	return nil
}

// ImportSnapshot replaces this service's streams with a peer's full
// snapshot (Save output) — the bootstrap path for a replica joining or
// rejoining a fleet. The imported state is marked foreign, so the next
// delta capture ships nothing the donor fleet already has, and every
// registered SyncState is re-based. The service reports not-ready
// while the import runs; on error the existing streams are untouched.
func (s *Service) ImportSnapshot(r io.Reader) error {
	s.beginMaintenance()
	defer s.endMaintenance()
	tmp, err := Load(r, s.opts)
	if err != nil {
		return err
	}
	for _, st := range tmp.allStreams() {
		st.mu.Lock()
		st.rebaselineForeignLocked()
		st.mu.Unlock()
	}
	next := *tmp.streams.Load()
	s.regMu.Lock()
	s.streams.Store(&next)
	s.regMu.Unlock()
	s.syncMu.Lock()
	for _, ss := range s.syncStates {
		ss.epoch++
		ss.streams = make(map[string]*peerStreamBase)
	}
	s.syncMu.Unlock()
	return nil
}

// rebaselineForeignLocked marks a stream's entire current state as
// foreign: local share zero, so delta extraction starts from here.
func (st *stream) rebaselineForeignLocked() {
	modelFree, err := deltaMode(st.engine)
	if err != nil {
		return // non-mergeable streams are not replicated
	}
	arms := len(st.engine.Hardware())
	m := st.ensureMergedLocked()
	if !modelFree {
		for a := 0; a < arms; a++ {
			if local, err := st.engine.ArmLearned(a); err == nil {
				m.Arms[a] = local
			}
		}
	}
	m.counts = st.countsLocked()
	db := make([]uint64, arms)
	for i := 0; i < arms && i < len(st.detectors); i++ {
		db[i] = st.detectors[i].Detections()
	}
	m.DriftBase = db
}

// Ready reports whether the service is fully serving: false only while
// a snapshot import (ImportSnapshot) replaces its state. Delta merges
// do not clear it — they leave every stream serving correctly. Routers
// use this (via GET /v1/readyz) to hold traffic off a replica that is
// restoring.
func (s *Service) Ready() bool { return s.maintenance.Load() == 0 }

func (s *Service) beginMaintenance() { s.maintenance.Add(1) }
func (s *Service) endMaintenance()   { s.maintenance.Add(-1) }

// distSnapLocked returns a copy of the stream's merge accumulator for
// the snapshot's "dist" block, leaving out all-zero slices, or nil when
// the stream has never absorbed foreign contributions (keeping v5
// bodies byte-stable). The slices are copies: Save encodes after
// releasing the stream locks, while delta merges and arm retirement
// keep writing the live ones.
func (st *stream) distSnapLocked() *mergedState {
	m := st.merged
	if m == nil {
		return nil
	}
	ds := &mergedState{
		Arms:      cloneUnlessZero(m.Arms, regress.Sufficient.IsZero),
		counts:    m.counts,
		Drift:     cloneUnlessZero(m.Drift, isZero),
		DriftBase: cloneUnlessZero(m.DriftBase, isZero),
	}
	if ds.Arms == nil && ds.Drift == nil && ds.DriftBase == nil && ds.counts == (counts{}) {
		return nil
	}
	return ds
}

// cloneUnlessZero copies s, or returns nil when every element is zero.
func cloneUnlessZero[T any](s []T, zero func(T) bool) []T {
	for _, v := range s {
		if !zero(v) {
			return slices.Clone(s)
		}
	}
	return nil
}

func isZero(n uint64) bool { return n == 0 }

// restoreDistLocked rebuilds a stream's mergedState from its persisted
// "dist" block.
func (st *stream) restoreDistLocked(ds *mergedState) error {
	arms := len(st.engine.Hardware())
	dim := st.engine.Dim()
	if len(ds.Arms) > 0 && len(ds.Arms) != arms {
		return fmt.Errorf("%d merged arm entries for %d arms", len(ds.Arms), arms)
	}
	for i, a := range ds.Arms {
		if a.Dim != dim {
			return fmt.Errorf("merged arm %d has dimension %d, want %d", i, a.Dim, dim)
		}
		if err := a.Validate(); err != nil {
			return fmt.Errorf("merged arm %d: %w", i, err)
		}
	}
	if len(ds.Drift) > 0 && len(ds.Drift) != arms {
		return fmt.Errorf("%d merged drift counts for %d arms", len(ds.Drift), arms)
	}
	if len(ds.DriftBase) > 0 && len(ds.DriftBase) != arms {
		return fmt.Errorf("%d drift-base counts for %d arms", len(ds.DriftBase), arms)
	}
	if !ds.finite() {
		return errors.New("merged rounds out of range or non-finite merged totals")
	}
	m := st.ensureMergedLocked()
	copy(m.Arms, ds.Arms)
	copy(m.Drift, ds.Drift)
	m.counts = ds.counts
	if len(ds.DriftBase) > 0 {
		m.DriftBase = ds.DriftBase
	}
	return nil
}

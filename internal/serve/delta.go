package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

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
// by ApplyDelta) so delta extraction can ship only the local share:
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

// streamDelta is the wire form of one stream's additive change: the
// per-arm sufficient-statistic deltas (index-aligned with the arm set;
// canonical-zero entries mark unchanged arms), the ε-decay rounds to
// absorb, the outcome counter increments, and per-arm drift detections.
type streamDelta struct {
	Name         string               `json:"name"`
	Policy       string               `json:"policy"`
	Dim          int                  `json:"dim"`
	Rounds       int                  `json:"rounds,omitempty"`
	Arms         []regress.Sufficient `json:"arms,omitempty"`
	Issued       uint64               `json:"issued,omitempty"`
	Observed     uint64               `json:"observed,omitempty"`
	RewardTotal  float64              `json:"reward_total,omitempty"`
	RuntimeTotal float64              `json:"runtime_total,omitempty"`
	Failures     uint64               `json:"failures,omitempty"`
	DriftByArm   []uint64             `json:"drift_by_arm,omitempty"`
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
// state itself), so delta extraction can subtract them out. driftBase
// marks detector counts that arrived with an imported snapshot — they
// live inside the local detectors but are not local detections.
type mergedState struct {
	arms      []regress.Sufficient
	rounds    int
	issued    uint64
	observed  uint64
	failures  uint64
	reward    float64
	runtime   float64
	drift     []uint64
	driftBase []uint64
}

func (m *mergedState) empty() bool {
	if m == nil {
		return true
	}
	if m.rounds != 0 || m.issued != 0 || m.observed != 0 || m.failures != 0 ||
		m.reward != 0 || m.runtime != 0 {
		return false
	}
	for _, a := range m.arms {
		if !a.IsZero() {
			return false
		}
	}
	for _, d := range m.drift {
		if d != 0 {
			return false
		}
	}
	for _, d := range m.driftBase {
		if d != 0 {
			return false
		}
	}
	return true
}

func (st *stream) ensureMergedLocked(arms, dim int) *mergedState {
	if st.merged == nil {
		st.merged = &mergedState{
			arms:  make([]regress.Sufficient, arms),
			drift: make([]uint64, arms),
		}
		for i := range st.merged.arms {
			st.merged.arms[i] = regress.Sufficient{Dim: dim}
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
	if st.merged != nil && arm < len(st.merged.arms) {
		st.merged.arms[arm] = regress.Sufficient{Dim: st.engine.Dim()}
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
	_, err = eng.ArmPrior(0)
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
	arms     []regress.Sufficient
	gens     []uint64
	rounds   int
	issued   uint64
	observed uint64
	failures uint64
	reward   float64
	runtime  float64
	drift    []uint64
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
	m := st.merged // may be nil: no foreign contributions yet
	var mRounds int
	var mIssued, mObserved, mFailures uint64
	var mReward, mRuntime float64
	if m != nil {
		mRounds, mIssued, mObserved, mFailures = m.rounds, m.issued, m.observed, m.failures
		mReward, mRuntime = m.reward, m.runtime
	}

	nb := &peerStreamBase{
		rounds:   st.engine.Round() - mRounds,
		issued:   st.issued - mIssued,
		observed: st.observed - mObserved,
		failures: st.failures - mFailures,
		reward:   st.rewardTotal - mReward,
		runtime:  st.runtimeTotal - mRuntime,
	}
	var zero peerStreamBase
	pb := &zero
	if prev != nil {
		pb = prev
	}
	sd := streamDelta{Name: st.name, Policy: st.engine.Kind(), Dim: dim}
	// Counter deltas clamp at zero defensively (a stale baseline after a
	// stream was deleted and recreated); the commit self-heals the base.
	if nb.rounds > pb.rounds {
		sd.Rounds = nb.rounds - pb.rounds
	}
	if nb.issued > pb.issued {
		sd.Issued = nb.issued - pb.issued
	}
	if nb.observed > pb.observed {
		sd.Observed = nb.observed - pb.observed
	}
	if nb.failures > pb.failures {
		sd.Failures = nb.failures - pb.failures
	}
	sd.RewardTotal = nb.reward - pb.reward
	sd.RuntimeTotal = nb.runtime - pb.runtime
	changed := sd.Rounds > 0 || sd.Issued > 0 || sd.Observed > 0 || sd.Failures > 0 ||
		sd.RewardTotal != 0 || sd.RuntimeTotal != 0

	if !modelFree {
		nb.arms = make([]regress.Sufficient, arms)
		nb.gens = make([]uint64, arms)
		armDeltas := make([]regress.Sufficient, arms)
		anyArm := false
		for a := 0; a < arms; a++ {
			cur, err := st.engine.ArmSufficient(a)
			if err != nil {
				return nil, nil, err
			}
			prior, err := st.engine.ArmPrior(a)
			if err != nil {
				return nil, nil, err
			}
			local, err := cur.Sub(prior)
			if err != nil {
				return nil, nil, err
			}
			if m != nil && a < len(m.arms) && !m.arms[a].IsZero() {
				if local, err = local.Sub(m.arms[a]); err != nil {
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
	// imported baseline); foreign detections live in merged.drift and are
	// never re-shipped.
	det := make([]uint64, arms)
	for i := 0; i < arms && i < len(st.detectors); i++ {
		det[i] = st.detectors[i].Detections()
		if m != nil && i < len(m.driftBase) {
			if det[i] >= m.driftBase[i] {
				det[i] -= m.driftBase[i]
			} else {
				det[i] = 0
			}
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
	case math.IsNaN(sd.RewardTotal) || math.IsInf(sd.RewardTotal, 0) ||
		math.IsNaN(sd.RuntimeTotal) || math.IsInf(sd.RuntimeTotal, 0):
		return fmt.Errorf("%w: non-finite totals", ErrBadDelta)
	}
	m := st.ensureMergedLocked(arms, dim)
	for a, d := range sd.Arms {
		if d.IsZero() {
			continue
		}
		if err := st.engine.MergeArmDelta(a, d); err != nil {
			return err
		}
		sum, err := m.arms[a].Add(d)
		if err != nil {
			return err
		}
		m.arms[a] = sum
		stats.Arms++
	}
	if sd.Rounds > 0 {
		if err := st.engine.AbsorbRounds(sd.Rounds); err != nil {
			return err
		}
		m.rounds += sd.Rounds
		stats.Rounds += sd.Rounds
	}
	st.issued += sd.Issued
	m.issued += sd.Issued
	st.observed += sd.Observed
	m.observed += sd.Observed
	st.failures += sd.Failures
	m.failures += sd.Failures
	st.rewardTotal += sd.RewardTotal
	m.reward += sd.RewardTotal
	st.runtimeTotal += sd.RuntimeTotal
	m.runtime += sd.RuntimeTotal
	for a, n := range sd.DriftByArm {
		if a < len(m.drift) {
			m.drift[a] += n
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
	dim := st.engine.Dim()
	m := st.ensureMergedLocked(arms, dim)
	if !modelFree {
		for a := 0; a < arms; a++ {
			cur, err := st.engine.ArmSufficient(a)
			if err != nil {
				continue
			}
			prior, err := st.engine.ArmPrior(a)
			if err != nil {
				continue
			}
			if local, err := cur.Sub(prior); err == nil {
				m.arms[a] = local
			}
		}
	}
	m.rounds = st.engine.Round()
	m.issued, m.observed, m.failures = st.issued, st.observed, st.failures
	m.reward, m.runtime = st.rewardTotal, st.runtimeTotal
	db := make([]uint64, arms)
	for i := 0; i < arms && i < len(st.detectors); i++ {
		db[i] = st.detectors[i].Detections()
	}
	m.driftBase = db
}

// Ready reports whether the service is fully serving: false only while
// a snapshot import (ImportSnapshot) replaces its state. Delta merges
// do not clear it — they leave every stream serving correctly. Routers
// use this (via GET /v1/readyz) to hold traffic off a replica that is
// restoring.
func (s *Service) Ready() bool { return s.maintenance.Load() == 0 }

func (s *Service) beginMaintenance() { s.maintenance.Add(1) }
func (s *Service) endMaintenance()   { s.maintenance.Add(-1) }

// distSnap is the version-6 persisted form of a stream's mergedState,
// omitted entirely (keeping v5 bodies byte-stable) until the stream
// has absorbed foreign contributions.
type distSnap struct {
	Arms         []regress.Sufficient `json:"arms,omitempty"`
	Rounds       int                  `json:"rounds,omitempty"`
	Issued       uint64               `json:"issued,omitempty"`
	Observed     uint64               `json:"observed,omitempty"`
	RewardTotal  float64              `json:"reward_total,omitempty"`
	RuntimeTotal float64              `json:"runtime_total,omitempty"`
	Failures     uint64               `json:"failures,omitempty"`
	Drift        []uint64             `json:"drift,omitempty"`
	DriftBase    []uint64             `json:"drift_base,omitempty"`
}

// distSnapLocked returns the stream's persisted merged state, or nil
// when it has never absorbed foreign contributions. The slices are
// copies: Save encodes after releasing the stream locks, while delta
// merges and arm retirement keep writing the live ones.
func (st *stream) distSnapLocked() *distSnap {
	m := st.merged
	if m.empty() {
		return nil
	}
	ds := &distSnap{
		Rounds:       m.rounds,
		Issued:       m.issued,
		Observed:     m.observed,
		RewardTotal:  m.reward,
		RuntimeTotal: m.runtime,
		Failures:     m.failures,
	}
	for _, a := range m.arms {
		if !a.IsZero() {
			ds.Arms = slices.Clone(m.arms)
			break
		}
	}
	for _, d := range m.drift {
		if d != 0 {
			ds.Drift = slices.Clone(m.drift)
			break
		}
	}
	for _, d := range m.driftBase {
		if d != 0 {
			ds.DriftBase = slices.Clone(m.driftBase)
			break
		}
	}
	return ds
}

// restoreDistLocked rebuilds a stream's mergedState from its persisted
// form.
func (st *stream) restoreDistLocked(ds *distSnap) error {
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
	if ds.Rounds < 0 {
		return fmt.Errorf("negative merged rounds %d", ds.Rounds)
	}
	if math.IsNaN(ds.RewardTotal) || math.IsInf(ds.RewardTotal, 0) ||
		math.IsNaN(ds.RuntimeTotal) || math.IsInf(ds.RuntimeTotal, 0) {
		return errors.New("non-finite merged totals")
	}
	m := st.ensureMergedLocked(arms, dim)
	copy(m.arms, ds.Arms)
	m.rounds = ds.Rounds
	m.issued, m.observed, m.failures = ds.Issued, ds.Observed, ds.Failures
	m.reward, m.runtime = ds.RewardTotal, ds.RuntimeTotal
	copy(m.drift, ds.Drift)
	if len(ds.DriftBase) > 0 {
		m.driftBase = append([]uint64(nil), ds.DriftBase...)
	}
	return nil
}

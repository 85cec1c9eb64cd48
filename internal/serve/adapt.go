package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"banditware/internal/drift"
)

// Canonical adaptation modes accepted in AdaptSpec.Mode.
const (
	// AdaptNone is the default: the stream learns on an infinite
	// horizon, byte-for-byte the pre-adaptation behaviour.
	AdaptNone = "none"
	// AdaptForgetting discounts old observations exponentially
	// (effective memory ≈ 1/(1−factor) samples per arm).
	AdaptForgetting = "forgetting"
	// AdaptWindow retains only the last Window observations per arm and
	// refits from that sliding window.
	AdaptWindow = "window"
)

// Canonical on-drift responses accepted in AdaptSpec.OnDrift.
const (
	// DriftObserve (the default) only counts detections — operators read
	// them from StreamInfo, /v1/stats, or the drift endpoint.
	DriftObserve = "observe"
	// DriftReset additionally resets the affected arm's model on each
	// detection, so it refits from post-drift observations only.
	DriftReset = "reset"
)

// driftWarmupDefault is how many of an arm's first residuals are
// discarded before drift monitoring starts when the spec does not say:
// residuals from a cold model are fit error, not drift.
const driftWarmupDefault = 20

// ErrBadAdapt reports an AdaptSpec no adaptation mode accepts.
var ErrBadAdapt = errors.New("serve: invalid adaptation spec")

// AdaptSpec selects and parameterises a stream's adaptation to
// non-stationary environments: how its models forget (Mode), and how
// the stream responds to online drift detections (OnDrift plus the
// Drift* detector tuning). The zero value is mode "none" with
// observe-only detection — byte-for-byte the pre-adaptation behaviour.
// In JSON the spec may be either a bare mode string ("forgetting") or
// an object ({"mode": "forgetting", "factor": 0.95}).
//
// Every stream, whatever its mode, carries one Page-Hinkley drift
// detector per arm (internal/drift) fed with the arm's reward
// residuals — observed learning signal minus the model's pre-update
// prediction. The detector is denominated in the stream's signal units
// (seconds under the default runtime reward), so tune DriftDelta and
// DriftThreshold to the stream's scale.
type AdaptSpec struct {
	// Mode is one of the Adapt* constants (aliases: "", "forget" and
	// "decay" mean forgetting's family defaults — see kind()).
	Mode string `json:"mode,omitempty"`
	// Factor is the exponential forgetting factor in (0, 1), mode
	// "forgetting" only (default 0.98 — effective memory ≈ 50 samples).
	Factor float64 `json:"factor,omitempty"`
	// Window is the per-arm sliding-window length ≥ 2, mode "window"
	// only (default 64).
	Window int `json:"window,omitempty"`
	// OnDrift is one of the Drift* constants (default "observe").
	OnDrift string `json:"on_drift,omitempty"`
	// Detector tuning; zeros select the defaults (see internal/drift
	// and driftWarmupDefault).
	DriftDelta      float64 `json:"drift_delta,omitempty"`
	DriftThreshold  float64 `json:"drift_threshold,omitempty"`
	DriftMinSamples int     `json:"drift_min_samples,omitempty"`
	DriftWarmup     int     `json:"drift_warmup,omitempty"`
}

// UnmarshalJSON accepts either a bare mode string or the full object
// form, and rejects unknown object fields.
func (a *AdaptSpec) UnmarshalJSON(data []byte) error {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) > 0 && trimmed[0] == '"' {
		var s string
		if err := json.Unmarshal(trimmed, &s); err != nil {
			return err
		}
		*a = AdaptSpec{Mode: s}
		return nil
	}
	type plain AdaptSpec // drops the custom unmarshaller
	var obj plain
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&obj); err != nil {
		return err
	}
	*a = AdaptSpec(obj)
	return nil
}

// IsDefault reports whether the spec is the default adaptation (mode
// none, observe-only, default detector) — such streams omit the spec
// from snapshots, keeping their stream bodies byte-identical to the
// pre-adaptation format.
func (a AdaptSpec) IsDefault() bool {
	return a == AdaptSpec{Mode: AdaptNone, OnDrift: DriftObserve}
}

// kind canonicalises Mode, resolving aliases.
func (a AdaptSpec) kind() (string, error) {
	switch strings.ToLower(strings.TrimSpace(a.Mode)) {
	case "", AdaptNone, "static":
		return AdaptNone, nil
	case AdaptForgetting, "forget", "decay":
		return AdaptForgetting, nil
	case AdaptWindow, "sliding", "sliding-window":
		return AdaptWindow, nil
	}
	return "", fmt.Errorf("%w: unknown mode %q", ErrBadAdapt, a.Mode)
}

// compileAdapt validates a spec and returns its canonical form: mode
// and on-drift resolved and defaulted, the active mode's parameter
// filled in, parameters of inactive modes rejected.
func compileAdapt(spec AdaptSpec) (AdaptSpec, error) {
	mode, err := spec.kind()
	if err != nil {
		return AdaptSpec{}, err
	}
	out := spec
	out.Mode = mode
	switch mode {
	case AdaptNone:
		if spec.Factor != 0 || spec.Window != 0 {
			return AdaptSpec{}, fmt.Errorf("%w: mode %q takes no factor or window", ErrBadAdapt, mode)
		}
	case AdaptForgetting:
		if spec.Window != 0 {
			return AdaptSpec{}, fmt.Errorf("%w: mode %q takes no window", ErrBadAdapt, mode)
		}
		if out.Factor == 0 {
			out.Factor = 0.98
		}
		if out.Factor <= 0 || out.Factor >= 1 {
			return AdaptSpec{}, fmt.Errorf("%w: forgetting factor %v outside (0, 1)", ErrBadAdapt, out.Factor)
		}
	case AdaptWindow:
		if spec.Factor != 0 {
			return AdaptSpec{}, fmt.Errorf("%w: mode %q takes no factor", ErrBadAdapt, mode)
		}
		if out.Window == 0 {
			out.Window = 64
		}
		if out.Window < 2 {
			return AdaptSpec{}, fmt.Errorf("%w: window %d below minimum 2", ErrBadAdapt, out.Window)
		}
	}
	switch strings.ToLower(strings.TrimSpace(spec.OnDrift)) {
	case "", DriftObserve, "count":
		out.OnDrift = DriftObserve
	case DriftReset, "auto-reset":
		out.OnDrift = DriftReset
	default:
		return AdaptSpec{}, fmt.Errorf("%w: unknown on_drift %q", ErrBadAdapt, spec.OnDrift)
	}
	if err := spec.detectorConfig().Validate(); err != nil {
		return AdaptSpec{}, fmt.Errorf("%w: %v", ErrBadAdapt, err)
	}
	return out, nil
}

// detectorConfig maps the spec's detector tuning to the drift package's
// config, applying the serving layer's warmup default.
func (a AdaptSpec) detectorConfig() drift.Config {
	warmup := a.DriftWarmup
	if warmup == 0 {
		warmup = driftWarmupDefault
	}
	return drift.Config{
		Delta:      a.DriftDelta,
		Threshold:  a.DriftThreshold,
		MinSamples: a.DriftMinSamples,
		Warmup:     warmup,
	}
}

// newDetectors builds one pristine per-arm detector set for a stream.
// The spec must already be canonical (compileAdapt), so construction
// cannot fail.
func newDetectors(spec AdaptSpec, arms int) []*drift.PageHinkley {
	out := make([]*drift.PageHinkley, arms)
	for i := range out {
		d, err := drift.New(spec.detectorConfig())
		if err != nil {
			panic("serve: compiled adaptation spec failed detector construction: " + err.Error())
		}
		out[i] = d
	}
	return out
}

// observeDriftLocked feeds one reward residual to the chosen arm's
// detector and applies the stream's on-drift response to a detection.
// residual is score − predicted (the engine's pre-update estimate for
// the arm); callers that have no prediction skip the call. Callers hold
// st.mu.
func (st *stream) observeDriftLocked(arm int, residual float64) {
	if !st.detectors[arm].Add(residual) {
		return
	}
	if st.adapt.OnDrift == DriftReset {
		if st.engine.ResetArm(arm) == nil {
			st.driftResets++
			// Re-anchor delta-sync baselines: the reset dropped the arm's
			// foreign contributions along with the local ones.
			st.bumpArmGenLocked(arm)
		}
	}
}

// driftEventsLocked sums the per-arm detection counts — local detector
// detections plus detections merged from fleet peers. Callers hold
// st.mu.
func (st *stream) driftEventsLocked() uint64 {
	var total uint64
	for i := range st.detectors {
		total += st.armDriftCountLocked(i)
	}
	return total
}

// driftByArmLocked returns the per-arm detection counts (local plus
// merged), or nil when no arm has any. Callers hold st.mu.
func (st *stream) driftByArmLocked() []uint64 {
	any := false
	out := make([]uint64, len(st.detectors))
	for i := range st.detectors {
		out[i] = st.armDriftCountLocked(i)
		any = any || out[i] > 0
	}
	if !any {
		return nil
	}
	return out
}

// armDriftCountLocked is one arm's fleet-wide detection count: its
// local detector's lifetime count plus detections replicated from
// peers. Callers hold st.mu.
func (st *stream) armDriftCountLocked(arm int) uint64 {
	n := st.detectors[arm].Detections()
	if st.merged != nil && arm < len(st.merged.Drift) {
		n += st.merged.Drift[arm]
	}
	return n
}

// ArmDrift is the live drift-monitoring state of one arm.
type ArmDrift struct {
	Arm      int    `json:"arm"`
	Hardware string `json:"hardware"`
	// Detections is the arm's lifetime drift-detection count.
	Detections uint64 `json:"detections"`
	// Samples counts the residuals absorbed since the detector's last
	// reset (warmup included); Mean is their running mean and Stat the
	// current Page-Hinkley excursion statistic, compared against
	// Threshold.
	Samples   int     `json:"samples"`
	Mean      float64 `json:"mean"`
	Stat      float64 `json:"stat"`
	Threshold float64 `json:"threshold"`
}

// DriftInfo is a point-in-time summary of one stream's drift
// monitoring: the adaptation spec, totals, and per-arm detector state.
type DriftInfo struct {
	Stream string    `json:"stream"`
	Adapt  AdaptSpec `json:"adapt"`
	// Detections totals the per-arm detection counts; Resets counts the
	// arm-model resets an on_drift="reset" stream has performed.
	Detections uint64     `json:"detections"`
	Resets     uint64     `json:"resets"`
	Arms       []ArmDrift `json:"arms"`
}

// Drift returns the named stream's drift-monitoring state: per-arm
// Page-Hinkley detector statistics, detection counts, and the stream's
// adaptation spec.
func (s *Service) Drift(name string) (DriftInfo, error) {
	st, err := s.stream(name)
	if err != nil {
		return DriftInfo{}, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	info := DriftInfo{
		Stream: st.name,
		Adapt:  st.adapt,
		Resets: st.driftResets,
		Arms:   make([]ArmDrift, len(st.detectors)),
	}
	for i, d := range st.detectors {
		info.Arms[i] = ArmDrift{
			Arm:        i,
			Hardware:   st.armLabels[i],
			Detections: st.armDriftCountLocked(i),
			Samples:    d.N(),
			Mean:       d.Mean(),
			Stat:       d.Stat(),
			Threshold:  d.Threshold(),
		}
		info.Detections += info.Arms[i].Detections
	}
	return info, nil
}

package core

import (
	"encoding/json"
	"fmt"
	"io"

	"banditware/internal/hardware"
	"banditware/internal/regress"
)

// stateVersion guards the persisted wire format.
const stateVersion = 1

// armState is the wire form of one arm.
type armState struct {
	RLS *regress.RLS `json:"rls"`
	Xs  [][]float64  `json:"xs,omitempty"`
	Ys  []float64    `json:"ys,omitempty"`
}

// banditState is the wire form of a Bandit.
type banditState struct {
	Version  int             `json:"version"`
	Options  Options         `json:"options"`
	Hardware hardware.Set    `json:"hardware"`
	Dim      int             `json:"dim"`
	Epsilon  float64         `json:"epsilon"`
	Round    int             `json:"round"`
	Seed     uint64          `json:"seed"`
	Arms     []armState      `json:"arms"`
	Models   []regress.Model `json:"models"`
}

// SaveState serialises the bandit (models, stored data, ε, round counter)
// as JSON. The exploration RNG position is not captured — a restored
// bandit draws a fresh exploration stream from the recorded seed, which
// preserves the distribution of behaviour but not the exact draw sequence.
func (b *Bandit) SaveState(w io.Writer) error {
	st := banditState{
		Version:  stateVersion,
		Options:  b.opts,
		Hardware: b.hw,
		Dim:      b.dim,
		Epsilon:  b.eps,
		Round:    b.round,
		Seed:     b.opts.Seed,
		Arms:     make([]armState, len(b.arms)),
		Models:   make([]regress.Model, len(b.arms)),
	}
	_, _, wxs, wys := b.est.Adaptation()
	for i, a := range b.arms {
		st.Arms[i] = armState{RLS: b.est.At(i), Xs: a.xs, Ys: a.ys}
		if wxs != nil {
			st.Arms[i].Xs, st.Arms[i].Ys = wxs[i], wys[i]
		}
		st.Models[i] = a.model.Clone()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// LoadState reconstructs a bandit serialised by SaveState.
func LoadState(r io.Reader) (*Bandit, error) {
	var st banditState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: decoding state: %w", err)
	}
	if st.Version != stateVersion {
		return nil, fmt.Errorf("core: unsupported state version %d", st.Version)
	}
	if len(st.Arms) != len(st.Hardware) || len(st.Models) != len(st.Hardware) {
		return nil, fmt.Errorf("core: corrupt state: %d arms, %d models, %d hardware",
			len(st.Arms), len(st.Models), len(st.Hardware))
	}
	// Check each estimator against the declared dimension before
	// building a bandit of that dimension: the estimators were sized by
	// their own payload, the dimension by nothing.
	est := make([]*regress.RLS, len(st.Arms))
	xs := make([][][]float64, len(st.Arms))
	ys := make([][]float64, len(st.Arms))
	for i, a := range st.Arms {
		est[i], xs[i], ys[i] = a.RLS, a.Xs, a.Ys
	}
	if err := regress.CheckEstimators(est, len(st.Arms), st.Dim); err != nil {
		return nil, fmt.Errorf("core: corrupt state: %w", err)
	}
	b, err := New(st.Hardware, st.Dim, st.Options)
	if err != nil {
		return nil, err
	}
	if err := b.est.Restore(est, xs, ys); err != nil {
		return nil, fmt.Errorf("core: corrupt state: %w", err)
	}
	b.eps = st.Epsilon
	b.round = st.Round
	for i := range st.Arms {
		if b.opts.WindowSize == 0 {
			b.arms[i].xs, b.arms[i].ys = xs[i], ys[i]
		}
		b.arms[i].model = st.Models[i]
	}
	return b, nil
}

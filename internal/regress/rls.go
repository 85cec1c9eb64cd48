package regress

import (
	"encoding/json"
	"fmt"
	"math"

	"banditware/internal/linalg"
)

// RLS is a recursive (online) least-squares estimator for y = w·x + b.
//
// It maintains the square-root information form: an upper-triangular
// factor R and vector z with RᵀR = λI + Σ aaᵀ and R·w = z, where a is the
// intercept-augmented feature vector [x…, 1]. Each observation is absorbed
// with Givens rotations — the numerically stable QR update — so the
// estimator tolerates the extreme feature-scale ratios real workload
// traces have (BurnPro3D mixes byte counts ~10¹⁰ with moisture fractions
// ~0.3, a Gram-matrix condition number beyond double precision for the
// naive Sherman–Morrison form).
//
// With the infinitesimal ridge prior λ this is algebraically equivalent to
// the paper's per-round batch least-squares refit (Algorithm 1, line 11)
// while costing O(d²) per observation — the property that makes BanditWare
// "lightweight".
type RLS struct {
	dim    int // feature dimension, excluding intercept
	lambda float64
	forget float64   // exponential forgetting factor in (0, 1]; 1 = none
	d      int       // dim+1
	r      []float64 // d×d upper-triangular factor, row-major
	z      []float64 // right-hand side, len d
	n      int       // observations absorbed

	w      []float64 // cached solution, len d
	wValid bool

	arow []float64 // scratch: augmented row, Uncertainty's and the samplers' solves
}

// DefaultLambda is the ridge weight used when NewRLS is given 0. It is
// small enough not to bias the fit yet keeps the factor invertible before
// the estimator has seen dim+1 observations.
const DefaultLambda = 1e-6

// NewRLS returns an estimator for feature dimension dim (excluding the
// intercept). lambda <= 0 selects DefaultLambda.
func NewRLS(dim int, lambda float64) (*RLS, error) {
	return NewRLSForgetting(dim, lambda, 1)
}

// NewRLSForgetting returns an estimator with exponential forgetting: on
// every update the accumulated information is discounted by forget
// (0 < forget <= 1), so old observations fade with an effective memory of
// ~1/(1−forget) samples. Forgetting lets the per-arm models track
// non-stationary environments — hardware whose performance changes over
// time — the "adapting to dynamic environments" direction the paper
// highlights.
func NewRLSForgetting(dim int, lambda, forget float64) (*RLS, error) {
	if dim < 0 {
		return nil, fmt.Errorf("regress: negative dimension %d", dim)
	}
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	if forget <= 0 || forget > 1 {
		return nil, fmt.Errorf("regress: forgetting factor %v outside (0, 1]", forget)
	}
	return newRLS(dim, lambda, forget), nil
}

// newRLS is NewRLSForgetting after validation: dim >= 0, lambda > 0,
// forget in (0, 1].
func newRLS(dim int, lambda, forget float64) *RLS {
	r := &RLS{
		dim:    dim,
		lambda: lambda,
		forget: forget,
		d:      dim + 1,
	}
	r.r = make([]float64, r.d*r.d)
	r.z = make([]float64, r.d)
	r.w = make([]float64, r.d)
	r.arow = make([]float64, r.d)
	r.initPrior()
	return r
}

func (r *RLS) initPrior() {
	for i := range r.r {
		r.r[i] = 0
	}
	sq := math.Sqrt(r.lambda)
	for i := 0; i < r.d; i++ {
		r.r[i*r.d+i] = sq
		r.z[i] = 0
		r.w[i] = 0
	}
	// The intercept is regularised a million times more weakly than the
	// weights (standard ridge practice): shrinking coefficients toward
	// zero is a modelling prior, shrinking the *mean* toward zero is just
	// bias.
	r.r[(r.d-1)*r.d+(r.d-1)] = sq * 1e-3
	r.wValid = true // prior solution is w = 0
	r.n = 0
}

// Dim returns the feature dimension (excluding intercept).
func (r *RLS) Dim() int { return r.dim }

// N returns the number of observations absorbed.
func (r *RLS) N() int { return r.n }

// Update absorbs one observation (x, y). It returns ErrBadInput for a
// wrong-length or non-finite x, or non-finite y.
func (r *RLS) Update(x []float64, y float64) error {
	if len(x) != r.dim {
		return fmt.Errorf("%w: feature length %d, want %d", ErrBadInput, len(x), r.dim)
	}
	if !linalg.VecIsFinite(x) || math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("%w: non-finite observation", ErrBadInput)
	}
	// Exponential forgetting: discount the accumulated information
	// before absorbing the new row. In square-root form this is a
	// uniform scaling of R and z by √forget.
	if r.forget < 1 {
		sf := math.Sqrt(r.forget)
		for i := range r.r {
			r.r[i] *= sf
		}
		for i := range r.z {
			r.z[i] *= sf
		}
	}
	a := r.arow
	copy(a, x)
	a[r.dim] = 1
	rhs := y
	d := r.d
	for i := 0; i < d; i++ {
		ai := a[i]
		if ai == 0 {
			continue
		}
		rii := r.r[i*d+i]
		// Givens rotation zeroing a[i] against R[i][i].
		h := math.Hypot(rii, ai)
		c, s := rii/h, ai/h
		r.r[i*d+i] = h
		a[i] = 0
		for j := i + 1; j < d; j++ {
			rij := r.r[i*d+j]
			aj := a[j]
			r.r[i*d+j] = c*rij + s*aj
			a[j] = -s*rij + c*aj
		}
		zi := r.z[i]
		r.z[i] = c*zi + s*rhs
		rhs = -s*zi + c*rhs
	}
	r.n++
	r.wValid = false
	return nil
}

// copyInto overwrites dst, an estimator of the same dimension, with r's
// state, reusing dst's buffers.
func (r *RLS) copyInto(dst *RLS) {
	dst.lambda, dst.forget, dst.n, dst.wValid = r.lambda, r.forget, r.n, r.wValid
	copy(dst.r, r.r)
	copy(dst.z, r.z)
	copy(dst.w, r.w)
}

// modelFinite solves for the model and reports whether Σ|wᵢ|, intercept
// included, is finite, so the model predicts a finite runtime for every
// context in the unit box.
func (r *RLS) modelFinite() bool {
	r.solve()
	return unitBoxFinite(r.w)
}

func unitBoxFinite(w []float64) bool {
	norm := 0.0
	for _, v := range w {
		norm += math.Abs(v)
	}
	return !math.IsNaN(norm) && !math.IsInf(norm, 0)
}

// solve refreshes the cached solution w from R·w = z by back substitution.
// The diagonal of R is bounded below by √λ, so the solve is always
// defined.
func (r *RLS) solve() {
	if r.wValid {
		return
	}
	backSubstitute(r.r, r.z, r.w)
	r.wValid = true
}

// backSubstitute solves R·w = z for the d×d upper-triangular row-major
// R, d = len(z), writing w.
func backSubstitute(R, z, w []float64) {
	d := len(z)
	for i := d - 1; i >= 0; i-- {
		s := z[i]
		for j := i + 1; j < d; j++ {
			s -= R[i*d+j] * w[j]
		}
		w[i] = s / R[i*d+i]
	}
}

// Model returns the current model snapshot.
func (r *RLS) Model() Model {
	r.solve()
	return Model{Weights: linalg.CloneVec(r.w[:r.dim]), Bias: r.w[r.dim]}
}

// ModelInto writes the current model snapshot into m, reusing
// m.Weights when it has the capacity — the allocation-free form of
// Model for callers that refresh a retained snapshot every update.
func (r *RLS) ModelInto(m *Model) {
	r.solve()
	if cap(m.Weights) < r.dim {
		m.Weights = make([]float64, r.dim)
	}
	m.Weights = m.Weights[:r.dim]
	copy(m.Weights, r.w[:r.dim])
	m.Bias = r.w[r.dim]
}

// Predict returns the current estimate w·x + b.
func (r *RLS) Predict(x []float64) float64 {
	r.solve()
	return linalg.Dot(r.w[:r.dim], x) + r.w[r.dim]
}

// Uncertainty returns aᵀ(RᵀR)⁻¹a for the intercept-augmented a — the
// quantity LinUCB-style policies use as a confidence width. It shrinks
// monotonically in the directions the estimator has observed.
func (r *RLS) Uncertainty(x []float64) float64 {
	if len(x) != r.dim {
		return math.Inf(1)
	}
	// Solve Rᵀu = a (forward substitution, in place: a[i] is read
	// before u[i] overwrites it); uncertainty = ‖u‖².
	u := r.arow
	copy(u, x)
	u[r.dim] = 1
	d := r.d
	for i := 0; i < d; i++ {
		s := u[i]
		for j := 0; j < i; j++ {
			s -= r.r[j*d+i] * u[j]
		}
		u[i] = s / r.r[i*d+i]
	}
	sum := 0.0
	for _, v := range u {
		sum += v * v
	}
	return sum
}

// SampleWeights draws a weight vector from N(w, v²·(RᵀR)⁻¹) — the
// posterior sample a linear Thompson-sampling policy needs. unit must
// supply independent standard-normal draws. The sample is w + v·R⁻¹ζ,
// whose covariance is exactly v²·R⁻¹R⁻ᵀ.
func (r *RLS) SampleWeights(v float64, unit func() float64) (Model, error) {
	s := r.sampleOffsets(unit)
	sample := make([]float64, r.d)
	for i := range sample {
		sample[i] = r.w[i] + v*s[i]
	}
	return Model{Weights: sample[:r.dim], Bias: sample[r.dim]}, nil
}

// SamplePredict is SampleWeights(v, unit).Predict(x) without the
// allocations: it consumes the same draws in the same order and sums in
// the same order, so it returns the identical value.
func (r *RLS) SamplePredict(v float64, unit func() float64, x []float64) float64 {
	s := r.sampleOffsets(unit)
	n := min(r.dim, len(x))
	sum := 0.0
	for i := 0; i < n; i++ {
		wi := r.w[i] + v*s[i]
		sum += wi * x[i]
	}
	return sum + (r.w[r.dim] + v*s[r.dim])
}

// sampleOffsets draws ζ from unit and returns R⁻¹ζ in the scratch
// vector (valid until the next call), with the solution w refreshed.
func (r *RLS) sampleOffsets(unit func() float64) []float64 {
	r.solve()
	d := r.d
	s := r.arow
	for i := range s {
		s[i] = unit()
	}
	// Back-substitute R·s = ζ in place: s[i] is read as ζᵢ before it
	// is overwritten, and only the already-solved s[j>i] feed it.
	for i := d - 1; i >= 0; i-- {
		acc := s[i]
		for j := i + 1; j < d; j++ {
			acc -= r.r[i*d+j] * s[j]
		}
		s[i] = acc / r.r[i*d+i]
	}
	return s
}

// Reset restores the estimator to its prior state.
func (r *RLS) Reset() { r.initPrior() }

// rlsState is the JSON wire form of an RLS estimator.
type rlsState struct {
	Dim    int       `json:"dim"`
	Lambda float64   `json:"lambda"`
	Forget float64   `json:"forget,omitempty"`
	R      []float64 `json:"r"`
	Z      []float64 `json:"z"`
	N      int       `json:"n"`
}

// MarshalJSON serialises the full estimator state.
func (r *RLS) MarshalJSON() ([]byte, error) {
	return json.Marshal(rlsState{
		Dim:    r.dim,
		Lambda: r.lambda,
		Forget: r.forget,
		R:      linalg.CloneVec(r.r),
		Z:      linalg.CloneVec(r.z),
		N:      r.n,
	})
}

// UnmarshalJSON restores an estimator serialised by MarshalJSON.
func (r *RLS) UnmarshalJSON(data []byte) error {
	var s rlsState
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if s.Forget == 0 {
		s.Forget = 1 // states written before forgetting existed
	}
	// Check the payload against the declared dimension before
	// allocating for it: the dimension alone may not be trusted.
	if len(s.Z) != s.Dim+1 || len(s.R) != len(s.Z)*len(s.Z) {
		return fmt.Errorf("%w: corrupt RLS state", ErrBadInput)
	}
	fresh, err := NewRLSForgetting(s.Dim, s.Lambda, s.Forget)
	if err != nil {
		return err
	}
	copy(fresh.r, s.R)
	copy(fresh.z, s.Z)
	fresh.n = s.N
	fresh.wValid = false
	*r = *fresh
	return nil
}

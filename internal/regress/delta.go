package regress

import (
	"fmt"
	"math"

	"banditware/internal/linalg"
)

// Sufficient is the information-form summary of an RLS estimator: the
// information matrix A = RᵀR = P + Σ aaᵀ, the information vector
// b = Rᵀz = Σ y·a (a the intercept-augmented feature row, P the ridge
// prior), and the observation count. Because A and b are plain sums over
// the observations, the difference of two Sufficient snapshots of the
// same estimator is exactly the contribution of the observations between
// them — the additive delta a replicated serving fleet exchanges.
type Sufficient struct {
	// Dim is the feature dimension excluding the intercept; A is
	// (Dim+1)² row-major symmetric and B has Dim+1 entries. A nil A/B
	// with N = 0 is the canonical "no change" delta.
	Dim int       `json:"dim"`
	N   int       `json:"n"`
	A   []float64 `json:"a,omitempty"`
	B   []float64 `json:"b,omitempty"`
}

// IsZero reports whether s is the canonical empty delta.
func (s Sufficient) IsZero() bool { return s.N == 0 && s.A == nil && s.B == nil }

// Validate rejects malformed (wrong-shaped or non-finite) statistics,
// as decoded from the wire.
func (s Sufficient) Validate() error {
	if s.Dim < 0 {
		return fmt.Errorf("%w: negative dimension %d", ErrBadInput, s.Dim)
	}
	if s.IsZero() {
		return nil
	}
	d := s.Dim + 1
	if len(s.A) != d*d || len(s.B) != d {
		return fmt.Errorf("%w: sufficient statistics shaped %d/%d, want %d/%d",
			ErrBadInput, len(s.A), len(s.B), d*d, d)
	}
	if !linalg.VecIsFinite(s.A) || !linalg.VecIsFinite(s.B) {
		return fmt.Errorf("%w: non-finite sufficient statistics", ErrBadInput)
	}
	return nil
}

// Sub returns the elementwise difference s − base: the additive change
// between two snapshots of the same estimator. When nothing changed the
// canonical empty delta is returned, so callers can skip unchanged arms
// without comparing floats themselves.
func (s Sufficient) Sub(base Sufficient) (Sufficient, error) {
	if s.Dim != base.Dim {
		return Sufficient{}, fmt.Errorf("%w: dimension %d vs %d", ErrBadInput, s.Dim, base.Dim)
	}
	if err := s.Validate(); err != nil {
		return Sufficient{}, err
	}
	if err := base.Validate(); err != nil {
		return Sufficient{}, err
	}
	d := s.Dim + 1
	out := Sufficient{Dim: s.Dim, N: s.N - base.N, A: make([]float64, d*d), B: make([]float64, d)}
	zero := out.N == 0
	for i := range out.A {
		out.A[i] = s.at(i) - base.at(i)
		zero = zero && out.A[i] == 0
	}
	for i := range out.B {
		out.B[i] = s.bt(i) - base.bt(i)
		zero = zero && out.B[i] == 0
	}
	if zero {
		return Sufficient{Dim: s.Dim}, nil
	}
	return out, nil
}

// Add returns the elementwise sum s + d — the accumulation dual of Sub,
// used to track cumulative merged contributions. Either side may be the
// canonical empty delta.
func (s Sufficient) Add(d Sufficient) (Sufficient, error) {
	if s.Dim != d.Dim {
		return Sufficient{}, fmt.Errorf("%w: dimension %d vs %d", ErrBadInput, s.Dim, d.Dim)
	}
	if err := s.Validate(); err != nil {
		return Sufficient{}, err
	}
	if err := d.Validate(); err != nil {
		return Sufficient{}, err
	}
	if d.IsZero() {
		return s, nil
	}
	if s.IsZero() {
		return d, nil
	}
	n := s.Dim + 1
	out := Sufficient{Dim: s.Dim, N: s.N + d.N, A: make([]float64, n*n), B: make([]float64, n)}
	for i := range out.A {
		out.A[i] = s.A[i] + d.A[i]
	}
	for i := range out.B {
		out.B[i] = s.B[i] + d.B[i]
	}
	return out, nil
}

// at and bt index A/B treating the canonical empty form as all zeros.
func (s Sufficient) at(i int) float64 {
	if s.A == nil {
		return 0
	}
	return s.A[i]
}

func (s Sufficient) bt(i int) float64 {
	if s.B == nil {
		return 0
	}
	return s.B[i]
}

// Sufficient returns the estimator's current information-form summary
// A = RᵀR, b = Rᵀz, computed from the square-root factor (so it is
// exact up to one O(d³) product, with no matrix inversion involved).
func (r *RLS) Sufficient() Sufficient {
	d := r.d
	out := Sufficient{Dim: r.dim, N: r.n, A: make([]float64, d*d), B: make([]float64, d)}
	// A[i][j] = Σ_k R[k][i]·R[k][j]; R is upper triangular, so k runs to
	// min(i, j).
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			s := 0.0
			for k := 0; k <= i; k++ {
				s += r.r[k*d+i] * r.r[k*d+j]
			}
			out.A[i*d+j] = s
			out.A[j*d+i] = s
		}
	}
	for i := 0; i < d; i++ {
		s := 0.0
		for k := 0; k <= i; k++ {
			s += r.r[k*d+i] * r.z[k]
		}
		out.B[i] = s
	}
	return out
}

// Prior returns the information-form summary of this estimator's prior —
// its state before any observation. Deltas for an estimator that was
// reset since the last sync are taken against the prior, so the fresh
// observations still ship while the (unretractable) prior is not
// double-counted.
func (r *RLS) Prior() Sufficient {
	d := r.d
	out := Sufficient{Dim: r.dim, A: make([]float64, d*d), B: make([]float64, d)}
	for i := 0; i < d; i++ {
		out.A[i*d+i] = r.lambda
	}
	// The intercept's prior weight is (√λ·1e-3)² — see initPrior.
	out.A[(d-1)*d+(d-1)] = r.lambda * 1e-6
	return out
}

// ApplyDelta merges an additive delta (produced by Sufficient().Sub on a
// peer estimator with the same dimension) into this estimator:
// A' = RᵀR + ΔA, b' = Rᵀz + Δb, then the square-root form is recovered
// by re-factoring A' = R'ᵀR' (Cholesky) and forward-solving R'ᵀz' = b'.
// Estimators with exponential forgetting reject the merge — their state
// is not a sum — and a delta that would make A' lose positive
// definiteness (e.g. one extracted against the wrong base), or whose
// merged statistics or model would not be finite, is rejected without
// modifying the estimator.
func (r *RLS) ApplyDelta(delta Sufficient) error {
	if r.forget != 1 {
		return fmt.Errorf("%w: estimator uses exponential forgetting", ErrNotMergeable)
	}
	if delta.Dim != r.dim {
		return fmt.Errorf("%w: delta dimension %d, want %d", ErrBadInput, delta.Dim, r.dim)
	}
	if err := delta.Validate(); err != nil {
		return err
	}
	if delta.N < 0 {
		return fmt.Errorf("%w: negative delta count %d", ErrBadInput, delta.N)
	}
	if delta.IsZero() {
		return nil
	}
	cur := r.Sufficient()
	d := r.d
	a := make([]float64, d*d)
	b := make([]float64, d)
	for i := range a {
		a[i] = cur.A[i] + delta.at(i)
	}
	for i := range b {
		b[i] = cur.B[i] + delta.bt(i)
	}
	// Each summand is finite (Validate), but a sum can overflow.
	if !linalg.VecIsFinite(a) || !linalg.VecIsFinite(b) {
		return fmt.Errorf("%w: merged sufficient statistics overflow", ErrBadInput)
	}
	nr, err := cholUpper(a, d)
	if err != nil {
		return err
	}
	// Forward-solve R'ᵀz' = b' (R'ᵀ is lower triangular).
	nz := make([]float64, d)
	for i := 0; i < d; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= nr[k*d+i] * nz[k]
		}
		nz[i] = s / nr[i*d+i]
	}
	// A finite factor can still carry a model that is not: a huge b
	// over a weakly informed direction solves to an infinite weight.
	// Require Σ|wᵢ| finite, so the merged model predicts a finite
	// runtime for every context in the unit box. The solve goes into the
	// cached solution, which a rejection marks stale.
	backSubstitute(nr, nz, r.w)
	norm := 0.0
	for _, v := range r.w {
		norm += math.Abs(v)
	}
	if math.IsNaN(norm) || math.IsInf(norm, 0) {
		r.wValid = false
		return fmt.Errorf("%w: merged model is not finite", ErrBadInput)
	}
	copy(r.r, nr)
	copy(r.z, nz)
	r.n += delta.N
	r.wValid = true
	return nil
}

// cholUpper factors a symmetric positive-definite d×d row-major matrix
// as A = UᵀU with U upper triangular, or fails when A is not (numerically)
// positive definite.
func cholUpper(a []float64, d int) ([]float64, error) {
	u := make([]float64, d*d)
	for i := 0; i < d; i++ {
		s := a[i*d+i]
		for k := 0; k < i; k++ {
			s -= u[k*d+i] * u[k*d+i]
		}
		if s <= 0 || math.IsNaN(s) {
			return nil, fmt.Errorf("%w: merged information matrix is not positive definite (pivot %d)", ErrBadInput, i)
		}
		uii := math.Sqrt(s)
		u[i*d+i] = uii
		for j := i + 1; j < d; j++ {
			t := a[i*d+j]
			for k := 0; k < i; k++ {
				t -= u[k*d+i] * u[k*d+j]
			}
			u[i*d+j] = t / uii
		}
	}
	return u, nil
}

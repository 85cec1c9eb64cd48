package regress

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// almostEq compares with a relative tolerance scaled to the magnitudes
// involved; the Cholesky refactor is not bit-exact but must be accurate
// to near machine precision.
func almostEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func obsStream(seed int64, n, dim int) ([][]float64, []float64) {
	rnd := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	w := make([]float64, dim)
	for i := range w {
		w[i] = rnd.NormFloat64()
	}
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		y := 0.3 * rnd.NormFloat64()
		for j := range x {
			x[j] = rnd.NormFloat64()
			y += w[j] * x[j]
		}
		xs[i] = x
		ys[i] = y
	}
	return xs, ys
}

// TestDeltaMergeMatchesSequential is the core correctness property:
// splitting a trace across K shards, extracting each shard's delta
// against its prior, and merging all deltas into a fresh estimator
// must reproduce the sequential estimator's model.
func TestDeltaMergeMatchesSequential(t *testing.T) {
	const dim, n, shards = 3, 240, 3
	xs, ys := obsStream(42, n, dim)

	seq, err := NewRLS(dim, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	shard := make([]*RLS, shards)
	for k := range shard {
		if shard[k], err = NewRLS(dim, 1e-3); err != nil {
			t.Fatal(err)
		}
	}
	for i := range xs {
		if err := seq.Update(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
		if err := shard[i%shards].Update(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}

	merged, err := NewRLS(dim, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for k := range shard {
		delta, err := shard[k].Learned()
		if err != nil {
			t.Fatal(err)
		}
		if delta.N != shard[k].N() {
			t.Fatalf("shard %d delta count %d, want %d", k, delta.N, shard[k].N())
		}
		if err := merged.ApplyDelta(delta); err != nil {
			t.Fatalf("merge shard %d: %v", k, err)
		}
	}

	if merged.N() != seq.N() {
		t.Fatalf("merged n = %d, want %d", merged.N(), seq.N())
	}
	ms, ss := merged.Sufficient(), seq.Sufficient()
	for i := range ms.A {
		if !almostEq(ms.A[i], ss.A[i], 1e-9) {
			t.Fatalf("A[%d] = %g, want %g", i, ms.A[i], ss.A[i])
		}
	}
	for i := range ms.B {
		if !almostEq(ms.B[i], ss.B[i], 1e-9) {
			t.Fatalf("B[%d] = %g, want %g", i, ms.B[i], ss.B[i])
		}
	}
	mw, sw := merged.Model(), seq.Model()
	for i := range mw.Weights {
		if !almostEq(mw.Weights[i], sw.Weights[i], 1e-9) {
			t.Fatalf("w[%d] = %g, want %g", i, mw.Weights[i], sw.Weights[i])
		}
	}
	if !almostEq(mw.Bias, sw.Bias, 1e-9) {
		t.Fatalf("bias %g, want %g", mw.Bias, sw.Bias)
	}
	// Uncertainty (used by LinUCB/LinTS) must agree too — the merged R
	// factor carries the full covariance, not just the point estimate.
	probe := []float64{0.7, -1.1, 0.4}
	mu := merged.Uncertainty(probe)
	su := seq.Uncertainty(probe)
	if !almostEq(mu, su, 1e-9) {
		t.Fatalf("uncertainty %g, want %g", mu, su)
	}
}

// TestDeltaIncrementalSync models the serving fleet's steady state:
// repeated sync rounds, each shipping only the change since the last
// round, with updates continuing between rounds.
func TestDeltaIncrementalSync(t *testing.T) {
	const dim = 2
	xs, ys := obsStream(7, 120, dim)

	learner, _ := NewRLS(dim, 1e-3)
	mirror, _ := NewRLS(dim, 1e-3)
	base := priorOf(learner)
	for i := range xs {
		if err := learner.Update(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
		if i%17 == 16 { // sync round
			cur := learner.Sufficient()
			delta, err := cur.Sub(base)
			if err != nil {
				t.Fatal(err)
			}
			if err := mirror.ApplyDelta(delta); err != nil {
				t.Fatal(err)
			}
			base = cur
		}
	}
	// Final flush.
	delta, err := learner.Sufficient().Sub(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := mirror.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	lw, mw := learner.Model(), mirror.Model()
	for i := range lw.Weights {
		if !almostEq(lw.Weights[i], mw.Weights[i], 1e-9) {
			t.Fatalf("w[%d] = %g, want %g", i, mw.Weights[i], lw.Weights[i])
		}
	}
	if !almostEq(lw.Bias, mw.Bias, 1e-9) {
		t.Fatalf("bias %g, want %g", mw.Bias, lw.Bias)
	}
	if learner.N() != mirror.N() {
		t.Fatalf("n = %d, want %d", mirror.N(), learner.N())
	}
}

func TestDeltaNoChangeIsZero(t *testing.T) {
	r, _ := NewRLS(2, 1e-3)
	if err := r.Update([]float64{1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	cur := r.Sufficient()
	delta, err := cur.Sub(cur)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.IsZero() {
		t.Fatalf("self-delta not canonical zero: %+v", delta)
	}
	// Applying the zero delta is a no-op.
	before := r.Sufficient()
	if err := r.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	after := r.Sufficient()
	for i := range before.A {
		if before.A[i] != after.A[i] {
			t.Fatal("zero delta mutated estimator")
		}
	}
}

func TestDeltaForgettingRejected(t *testing.T) {
	r, err := NewRLSForgetting(2, 1e-3, 0.98)
	if err != nil {
		t.Fatal(err)
	}
	d := Sufficient{Dim: 2}
	if err := r.ApplyDelta(d); !errors.Is(err, ErrNotMergeable) {
		t.Fatalf("forgetting estimator merge: err = %v, want ErrNotMergeable", err)
	}
}

func TestDeltaNonPositiveDefiniteRejected(t *testing.T) {
	r, _ := NewRLS(1, 1e-3)
	if err := r.Update([]float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	// A large negative delta drives the information matrix indefinite.
	bad := Sufficient{Dim: 1, N: 1, A: []float64{-100, 0, 0, -100}, B: []float64{0, 0}}
	before := r.Sufficient()
	if err := r.ApplyDelta(bad); err == nil {
		t.Fatal("indefinite merge accepted")
	}
	after := r.Sufficient()
	for i := range before.A {
		if before.A[i] != after.A[i] {
			t.Fatal("failed merge mutated estimator")
		}
	}
	if r.N() != before.N {
		t.Fatal("failed merge changed count")
	}
}

// TestDeltaNonFiniteMergeRejected: each delta below is finite and
// positive semidefinite, yet merging it would leave the estimator with
// an infinite model (a huge b over the weakly informed prior) or
// overflowing statistics (a second near-maximal A on the same entry).
// Both are rejected without modifying the estimator.
func TestDeltaNonFiniteMergeRejected(t *testing.T) {
	r, _ := NewRLS(1, 0)
	if err := r.Update([]float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	huge := Sufficient{Dim: 1, N: 1, A: []float64{0, 0, 0, 0}, B: []float64{1e303, -1e303}}
	if err := r.ApplyDelta(huge); !errors.Is(err, ErrBadInput) {
		t.Fatalf("infinite-model merge: err = %v, want ErrBadInput", err)
	}
	big := Sufficient{Dim: 1, N: 1, A: []float64{math.MaxFloat64, 0, 0, 1}, B: []float64{0, 0}}
	if err := r.ApplyDelta(big); err != nil {
		t.Fatalf("first near-maximal merge: %v", err)
	}
	before := r.Sufficient()
	if err := r.ApplyDelta(big); !errors.Is(err, ErrBadInput) {
		t.Fatalf("overflowing merge: err = %v, want ErrBadInput", err)
	}
	after := r.Sufficient()
	for i := range before.A {
		if before.A[i] != after.A[i] {
			t.Fatal("failed merge mutated estimator")
		}
	}
	if p := r.Predict([]float64{1}); math.IsNaN(p) || math.IsInf(p, 0) {
		t.Fatalf("estimator predicts %v after the rejected merges", p)
	}
}

func TestDeltaShapeValidation(t *testing.T) {
	r, _ := NewRLS(2, 1e-3)
	cases := []Sufficient{
		{Dim: 1, N: 1, A: make([]float64, 4), B: make([]float64, 2)},                            // wrong dim
		{Dim: 2, N: 1, A: make([]float64, 5), B: make([]float64, 3)},                            // wrong A shape
		{Dim: 2, N: 1, A: make([]float64, 9), B: make([]float64, 2)},                            // wrong B shape
		{Dim: 2, N: 1, A: []float64{math.NaN(), 0, 0, 0, 0, 0, 0, 0, 0}, B: make([]float64, 3)}, // NaN
		{Dim: 2, N: -3, A: make([]float64, 9), B: make([]float64, 3)},                           // negative count
	}
	for i, c := range cases {
		if err := r.ApplyDelta(c); !errors.Is(err, ErrBadInput) {
			t.Fatalf("case %d: err = %v, want ErrBadInput", i, err)
		}
	}
}

// priorOf builds the information-form summary of r's untrained prior:
// λ on the diagonal, (√λ·1e-3)² for the intercept (see initPrior).
func priorOf(r *RLS) Sufficient {
	d := r.d
	out := Sufficient{Dim: r.dim, A: make([]float64, d*d), B: make([]float64, d)}
	for i := 0; i < d; i++ {
		out.A[i*d+i] = r.lambda
	}
	out.A[d*d-1] = r.lambda * 1e-6
	return out
}

// sameBits reports whether two statistics are identical bit for bit,
// the nil-ness of the canonical empty form included.
func sameBits(a, b Sufficient) bool {
	if a.Dim != b.Dim || a.N != b.N || (a.A == nil) != (b.A == nil) || (a.B == nil) != (b.B == nil) ||
		len(a.A) != len(b.A) || len(a.B) != len(b.B) {
		return false
	}
	for i := range a.A {
		if math.Float64bits(a.A[i]) != math.Float64bits(b.A[i]) {
			return false
		}
	}
	for i := range a.B {
		if math.Float64bits(a.B[i]) != math.Float64bits(b.B[i]) {
			return false
		}
	}
	return true
}

// TestLearnedMatchesSufficientLessPrior pins Learned to the two-step
// form it replaces, Sufficient().Sub(prior), bit for bit: on a fresh
// estimator, after random updates at
// several ridge weights, after a merged delta and after a reset.
func TestLearnedMatchesSufficientLessPrior(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	check := func(r *RLS, label string) {
		t.Helper()
		want, err := r.Sufficient().Sub(priorOf(r))
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Learned()
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("%s: Learned = %+v, want %+v", label, got, want)
		}
	}
	for _, lambda := range []float64{0, 1e-9, 1e-3, 1, 37.5} {
		for _, dim := range []int{0, 1, 3} {
			r, err := NewRLS(dim, lambda)
			if err != nil {
				t.Fatal(err)
			}
			check(r, "fresh")
			for i := 0; i < 40; i++ {
				x := make([]float64, dim)
				for j := range x {
					x[j] = rnd.NormFloat64() * math.Pow(10, float64(rnd.Intn(7)-3))
				}
				if err := r.Update(x, rnd.NormFloat64()*100); err != nil {
					t.Fatal(err)
				}
				check(r, "after update")
			}
			peer, _ := NewRLS(dim, lambda)
			for i := 0; i < 5; i++ {
				x := make([]float64, dim)
				for j := range x {
					x[j] = rnd.Float64()
				}
				if err := peer.Update(x, rnd.Float64()); err != nil {
					t.Fatal(err)
				}
			}
			delta, err := peer.Learned()
			if err != nil {
				t.Fatal(err)
			}
			if err := r.ApplyDelta(delta); err != nil {
				t.Fatal(err)
			}
			check(r, "after merge")
			r.Reset()
			check(r, "after reset")
		}
	}
}

func TestPriorMatchesFreshSufficient(t *testing.T) {
	r, _ := NewRLS(3, 1e-3)
	fresh := r.Sufficient()
	prior := priorOf(r)
	if prior.N != 0 {
		t.Fatalf("prior N = %d", prior.N)
	}
	for i := range fresh.A {
		if !almostEq(fresh.A[i], prior.A[i], 1e-12) {
			t.Fatalf("prior A[%d] = %g, want %g", i, prior.A[i], fresh.A[i])
		}
	}
	for i := range fresh.B {
		if !almostEq(fresh.B[i], prior.B[i], 1e-12) {
			t.Fatalf("prior B[%d] = %g, want %g", i, prior.B[i], fresh.B[i])
		}
	}
}

func TestDeltaAfterResetUsesPriorBase(t *testing.T) {
	// A learner that was reset since the last sync extracts its delta
	// against the prior, shipping only post-reset observations.
	learner, _ := NewRLS(2, 1e-3)
	xs, ys := obsStream(9, 60, 2)
	for i := 0; i < 30; i++ {
		if err := learner.Update(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	learner.Reset()
	for i := 30; i < 60; i++ {
		if err := learner.Update(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	delta, err := learner.Learned()
	if err != nil {
		t.Fatal(err)
	}
	if delta.N != 30 {
		t.Fatalf("post-reset delta N = %d, want 30", delta.N)
	}
	// Merging into a fresh estimator reproduces the post-reset model.
	merged, _ := NewRLS(2, 1e-3)
	if err := merged.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	want, _ := NewRLS(2, 1e-3)
	for i := 30; i < 60; i++ {
		if err := want.Update(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	mw, ww := merged.Model(), want.Model()
	for i := range mw.Weights {
		if !almostEq(mw.Weights[i], ww.Weights[i], 1e-9) {
			t.Fatalf("w[%d] = %g, want %g", i, mw.Weights[i], ww.Weights[i])
		}
	}
}

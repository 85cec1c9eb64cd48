package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"banditware/internal/rng"
)

func randomMatrix(r *rng.Source, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 1)
	}
	return m
}

// fromRows builds a matrix from equal-length rows.
func fromRows(rows ...[]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, row := range rows {
		copy(m.Row(i), row)
	}
	return m
}

// mul is the textbook triple-loop product a·b, the reference the tiled
// kernels are checked against.
func mul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// mulVec returns the matrix-vector product m·x.
func mulVec(m *Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// maxAbsDiff returns the largest absolute elementwise difference between
// a and b, or +Inf if their shapes differ.
func maxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	d := 0.0
	for i := range a.Data {
		d = math.Max(d, math.Abs(a.Data[i]-b.Data[i]))
	}
	return d
}

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0, 3) did not panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestIdentityMul(t *testing.T) {
	r := rng.New(1)
	a := randomMatrix(r, 5, 5)
	id := Identity(5)
	left, err := MulParallel(id, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	right, err := MulParallel(a, id, 2)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(left, a) > 1e-14 || maxAbsDiff(right, a) > 1e-14 {
		t.Fatal("identity multiplication changed the matrix")
	}
}

func TestMulKnown(t *testing.T) {
	a := fromRows([]float64{1, 2}, []float64{3, 4})
	b := fromRows([]float64{5, 6}, []float64{7, 8})
	got, err := MulParallel(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := fromRows([]float64{19, 22}, []float64{43, 50})
	if maxAbsDiff(got, want) > 1e-14 {
		t.Fatalf("MulParallel = %v, want %v", got, want)
	}
}

func TestMulShapeError(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := MulParallel(a, b, 2); err != ErrShape {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestTranspose(t *testing.T) {
	a := fromRows([]float64{1, 2, 3}, []float64{4, 5, 6})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 0) != 3 || at.At(0, 1) != 4 {
		t.Fatalf("bad transpose: %v", at)
	}
	// (Aᵀ)ᵀ == A
	if maxAbsDiff(at.T(), a) != 0 {
		t.Fatal("double transpose != original")
	}
}

func TestAddSubScale(t *testing.T) {
	a := fromRows([]float64{1, 2}, []float64{3, 4})
	b := fromRows([]float64{5, 6}, []float64{7, 8})
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := Sub(sum, b)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(diff, a) > 1e-14 {
		t.Fatal("a + b - b != a")
	}
	c := a.Clone().Scale(2)
	if c.At(1, 1) != 8 {
		t.Fatalf("Scale failed: %v", c)
	}
	if _, err := Add(a, NewMatrix(3, 3)); err != ErrShape {
		t.Fatal("Add shape mismatch should error")
	}
	if _, err := Sub(a, NewMatrix(3, 3)); err != ErrShape {
		t.Fatal("Sub shape mismatch should error")
	}
}

func TestDotAndCloneVec(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("Dot = %v", Dot(x, y))
	}
	if Dot(x, y[:2]) != 14 {
		t.Fatalf("Dot over unequal lengths = %v, want the shorter length's sum", Dot(x, y[:2]))
	}
	z := CloneVec(y)
	z[0] = 0
	if y[0] != 4 {
		t.Fatal("CloneVec shares storage with its input")
	}
}

func TestVecIsFinite(t *testing.T) {
	if !VecIsFinite([]float64{1, 2}) {
		t.Fatal("finite vector misreported")
	}
	if VecIsFinite([]float64{1, math.NaN()}) || VecIsFinite([]float64{math.Inf(1)}) {
		t.Fatal("non-finite vector misreported")
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + int(seed%6)
		// Build SPD matrix A = GᵀG + I.
		g := randomMatrix(r, n, n)
		a := mul(g.T(), g)
		for i := 0; i < n; i++ {
			a.Data[i*n+i] += 1
		}
		chol, err := NewCholesky(a)
		if err != nil {
			return false
		}
		// L·Lᵀ must reconstruct A.
		l := chol.L()
		recon := mul(l, l.T())
		if maxAbsDiff(recon, a) > 1e-8 {
			return false
		}
		// Solve against a known x.
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Normal(0, 1)
		}
		b := mulVec(a, x)
		got, err := chol.Solve(b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([]float64{1, 0}, []float64{0, -1})
	if _, err := NewCholesky(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if _, err := NewCholesky(NewMatrix(2, 3)); err != ErrShape {
		t.Fatal("non-square should be ErrShape")
	}
}

func TestCholeskySolveShape(t *testing.T) {
	a := fromRows([]float64{2, 0}, []float64{0, 2})
	chol, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chol.Solve([]float64{1}); err != ErrShape {
		t.Fatal("wrong-length b should be ErrShape")
	}
}

func TestQRLeastSquaresRecovery(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		m, n := 40, 4
		a := randomMatrix(r, m, n)
		x := []float64{1.5, -2, 0.5, 3}
		b := mulVec(a, x)
		qr, err := NewQR(a)
		if err != nil {
			return false
		}
		got, err := qr.Solve(b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQRResidualOrthogonality(t *testing.T) {
	// For a least-squares solution, the residual is orthogonal to the
	// column space: Aᵀ(b − Ax) ≈ 0.
	r := rng.New(42)
	m, n := 50, 3
	a := randomMatrix(r, m, n)
	b := make([]float64, m)
	for i := range b {
		b[i] = r.Normal(0, 1)
	}
	qr, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := qr.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	res := mulVec(a, x)
	for i := range res {
		res[i] = b[i] - res[i]
	}
	atr := mulVec(a.T(), res)
	for i, v := range atr {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("residual not orthogonal: (Aᵀr)[%d] = %v", i, v)
		}
	}
}

func TestQRShapeError(t *testing.T) {
	if _, err := NewQR(NewMatrix(2, 5)); err != ErrShape {
		t.Fatal("underdetermined QR should be ErrShape")
	}
}

func TestQRSingular(t *testing.T) {
	// A column of zeros makes the factorization singular.
	a := NewMatrix(5, 2)
	for i := 0; i < 5; i++ {
		a.Set(i, 0, float64(i+1))
	}
	if _, err := NewQR(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLeastSquaresFallback(t *testing.T) {
	// Duplicate columns: rank deficient; ridge fallback must still return a
	// finite solution with small residual norm along the column space.
	a := NewMatrix(10, 2)
	for i := 0; i < 10; i++ {
		a.Set(i, 0, float64(i))
		a.Set(i, 1, float64(i)) // identical column
	}
	b := make([]float64, 10)
	for i := range b {
		b[i] = 2 * float64(i)
	}
	x, err := SolveLeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !VecIsFinite(x) {
		t.Fatalf("non-finite solution %v", x)
	}
	// Prediction must match b even though coefficients are not unique.
	pred := mulVec(a, x)
	for i := range b {
		if math.Abs(pred[i]-b[i]) > 1e-3 {
			t.Fatalf("fallback prediction off at %d: %v vs %v", i, pred[i], b[i])
		}
	}
}

func TestSolveLeastSquaresShape(t *testing.T) {
	if _, err := SolveLeastSquares(NewMatrix(3, 2), []float64{1, 2}, 0); err != ErrShape {
		t.Fatal("mismatched b should be ErrShape")
	}
}

func TestBlockedMatchesNaive(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		rows := 1 + int(seed%40)
		inner := 1 + int((seed>>8)%40)
		cols := 1 + int((seed>>16)%40)
		a := randomMatrix(r, rows, inner)
		b := randomMatrix(r, inner, cols)
		blocked := NewMatrix(rows, cols)
		mulBlockedRange(blocked, a, b, 7, 0, rows) // deliberately odd tile
		return maxAbsDiff(mul(a, b), blocked) < 1e-10
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	r := rng.New(5)
	a := randomMatrix(r, 67, 53)
	b := randomMatrix(r, 53, 71)
	serial := mul(a, b)
	for _, workers := range []int{1, 2, 3, 8, 100} {
		par, err := MulParallel(a, b, workers)
		if err != nil {
			t.Fatal(err)
		}
		if maxAbsDiff(serial, par) > 1e-10 {
			t.Fatalf("parallel(%d workers) != serial", workers)
		}
	}
}

func TestSquare(t *testing.T) {
	r := rng.New(6)
	a := randomMatrix(r, 32, 32)
	sq, err := Square(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(sq, mul(a, a)) > 1e-10 {
		t.Fatal("Square != a·a")
	}
	if _, err := Square(NewMatrix(2, 3), 1); err != ErrShape {
		t.Fatal("non-square Square should be ErrShape")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	a := fromRows([]float64{3, 0}, []float64{0, 4})
	if math.Abs(a.FrobeniusNorm()-5) > 1e-14 {
		t.Fatalf("Frobenius = %v, want 5", a.FrobeniusNorm())
	}
}

func BenchmarkMulParallel256(b *testing.B) {
	r := rng.New(1)
	a := randomMatrix(r, 256, 256)
	c := randomMatrix(r, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MulParallel(a, c, 0); err != nil {
			b.Fatal(err)
		}
	}
}

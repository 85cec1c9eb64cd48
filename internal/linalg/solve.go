package linalg

import "math"

// SolveLeastSquares returns x minimising ‖A·x − b‖₂ via Householder QR,
// falling back to a ridge-regularised normal-equation solve when the design
// matrix is rank-deficient. ridge is the fallback Tikhonov weight; pass 0
// for the default (1e-8 scaled by the matrix magnitude).
func SolveLeastSquares(a *Matrix, b []float64, ridge float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, ErrShape
	}
	if a.Rows >= a.Cols {
		if qr, err := NewQR(a); err == nil && qr.RCond() > 1e-12 {
			if x, err := qr.Solve(b); err == nil && VecIsFinite(x) {
				return x, nil
			}
		}
	}
	return solveRidge(a, b, ridge)
}

// solveRidge solves the Tikhonov-regularised normal equations
// (AᵀA + λI)·x = Aᵀb, which is always positive definite for λ > 0.
func solveRidge(a *Matrix, b []float64, ridge float64) ([]float64, error) {
	n := a.Cols
	ata := NewMatrix(n, n)
	atb := make([]float64, n)
	for r := 0; r < a.Rows; r++ {
		row := a.Row(r)
		for i := 0; i < n; i++ {
			if row[i] == 0 {
				continue
			}
			for j := 0; j <= i; j++ {
				ata.Data[i*n+j] += row[i] * row[j]
			}
			atb[i] += row[i] * b[r]
		}
	}
	// Mirror the lower triangle (Cholesky only reads the lower half, but a
	// symmetric matrix keeps invariants honest for callers inspecting it).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ata.Data[i*n+j] = ata.Data[j*n+i]
		}
	}
	if ridge <= 0 {
		// Scale-aware default jitter.
		maxDiag := 0.0
		for i := 0; i < n; i++ {
			if d := math.Abs(ata.At(i, i)); d > maxDiag {
				maxDiag = d
			}
		}
		if maxDiag == 0 {
			maxDiag = 1
		}
		ridge = 1e-8 * maxDiag
	}
	for i := 0; i < n; i++ {
		ata.Data[i*n+i] += ridge
	}
	chol, err := NewCholesky(ata)
	if err != nil {
		return nil, err
	}
	return chol.Solve(atb)
}

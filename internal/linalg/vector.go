package linalg

import "math"

// Dot returns the inner product of x and y. The shorter length governs if
// they differ (callers are expected to pass equal lengths; the tolerant
// behaviour avoids bounds panics in hot loops).
func Dot(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += x[i] * y[i]
	}
	return sum
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	return append([]float64(nil), x...)
}

// VecIsFinite reports whether every element of x is finite.
func VecIsFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

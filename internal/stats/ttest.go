package stats

import "math"

// TTestResult reports a two-sample Welch t-test.
type TTestResult struct {
	T  float64 // t statistic
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchTTest compares the means of two independent samples without
// assuming equal variances — the right test for comparing policy regrets
// or runtimes across simulation replicas. It returns ErrEmpty when either
// sample has fewer than two elements.
func WelchTTest(xs, ys []float64) (TTestResult, error) {
	if len(xs) < 2 || len(ys) < 2 {
		return TTestResult{}, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	vx, vy := Variance(xs), Variance(ys)
	nx, ny := float64(len(xs)), float64(len(ys))
	sx, sy := vx/nx, vy/ny
	se := math.Sqrt(sx + sy)
	if se == 0 {
		// Identical constant samples: no evidence of difference.
		if mx == my {
			return TTestResult{T: 0, DF: nx + ny - 2, P: 1}, nil
		}
		return TTestResult{T: math.Inf(sign(mx - my)), DF: nx + ny - 2, P: 0}, nil
	}
	t := (mx - my) / se
	df := (sx + sy) * (sx + sy) / (sx*sx/(nx-1) + sy*sy/(ny-1))
	p := 2 * studentTCDFUpper(math.Abs(t), df)
	if p > 1 {
		p = 1
	}
	return TTestResult{T: t, DF: df, P: p}, nil
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// studentTCDFUpper returns P(T > t) for Student's t with df degrees of
// freedom, via the regularised incomplete beta function:
// P(T > t) = I_{df/(df+t²)}(df/2, 1/2) / 2 for t >= 0.
func studentTCDFUpper(t, df float64) float64 {
	if t < 0 {
		return 1 - studentTCDFUpper(-t, df)
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularised incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes' betacf
// construction, reimplemented from the published mathematics).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(v float64) float64 {
	lg, _ := math.Lgamma(v)
	return lg
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// Package stats provides the statistical primitives behind BioHD's
// alignment-quality model: exact and approximate binomial tails, the
// normal distribution and its quantile function, and streaming moment
// accumulators used by the experiment harness.
//
// The quality model reduces to tail probabilities of dot products between
// random hypervectors. A dot product of two independent random bipolar
// D-vectors is 2·Binomial(D, 1/2) − D, so everything here is expressed in
// terms of binomial and normal tails.
package stats

import (
	"fmt"
	"math"
)

// NormalCDF returns P(Z ≤ x) for a standard normal Z.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalTail returns P(Z ≥ x) for a standard normal Z, accurate in the
// far tail where 1−CDF would cancel.
func NormalTail(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// NormalQuantile returns the x with P(Z ≤ x) = p for a standard normal Z.
// It panics unless 0 < p < 1. The implementation is the Acklam rational
// approximation polished by one Halley iteration, giving ~1e-15 relative
// accuracy across the full domain.
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: NormalQuantile domain error: p=%v", p))
	}
	// Acklam's coefficients.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley polish step against the exact CDF.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// NormalUpperQuantile returns the x with P(Z ≥ x) = p. It is exact in
// the far upper tail where 1−p would round to 1 and NormalQuantile(1−p)
// would lose all precision: by symmetry x = −NormalQuantile(p).
func NormalUpperQuantile(p float64) float64 {
	return -NormalQuantile(p)
}

// LogBinomialCoeff returns ln C(n, k). It panics on invalid arguments.
func LogBinomialCoeff(n, k int) float64 {
	if k < 0 || n < 0 || k > n {
		panic(fmt.Sprintf("stats: LogBinomialCoeff(%d, %d) out of domain", n, k))
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p).
func BinomialPMF(n int, p float64, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lp := LogBinomialCoeff(n, k) +
		float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(lp)
}

// BinomialTail returns P(X ≥ k) for X ~ Binomial(n, p), computed through
// the regularized incomplete beta function: P(X ≥ k) = I_p(k, n−k+1).
func BinomialTail(n int, p float64, k int) float64 {
	switch {
	case k <= 0:
		return 1
	case k > n:
		return 0
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	return RegIncBeta(float64(k), float64(n-k+1), p)
}

// BinomialCDF returns P(X ≤ k) for X ~ Binomial(n, p).
func BinomialCDF(n int, p float64, k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	return 1 - BinomialTail(n, p, k+1)
}

// HypergeometricTail returns P(X ≥ k) for X the number of marked items
// among draws taken without replacement from a population of pop items
// of which marked are marked. The sum runs away from the mode — upward
// from k above it, downward from k−1 (as the complement) below it — so
// its terms only shrink: the first comes from log-binomial coefficients,
// the rest from the ratio of consecutive terms, and a tail far below
// float64's smallest value is 0 instead of garbage. It panics unless
// 0 ≤ marked, draws ≤ pop.
func HypergeometricTail(pop, marked, draws, k int) float64 {
	if marked < 0 || draws < 0 || marked > pop || draws > pop {
		panic(fmt.Sprintf("stats: HypergeometricTail(%d, %d, %d, %d) out of domain", pop, marked, draws, k))
	}
	lo, hi := max(0, draws-(pop-marked)), min(draws, marked)
	if k <= lo {
		return 1
	}
	if k > hi {
		return 0
	}
	pmf := func(x int) float64 {
		return math.Exp(LogBinomialCoeff(marked, x) + LogBinomialCoeff(pop-marked, draws-x) - LogBinomialCoeff(pop, draws))
	}
	// P(X = x+1) / P(X = x).
	up := func(x int) float64 {
		return float64(marked-x) * float64(draws-x) / (float64(x+1) * float64(pop-marked-draws+x+1))
	}
	if mode := int(float64(draws+1) * float64(marked+1) / float64(pop+2)); k <= mode {
		term := pmf(k - 1)
		sum := term
		for x := k - 1; x > lo && term > sum*1e-18; x-- {
			term /= up(x - 1)
			sum += term
		}
		return math.Max(1-sum, 0)
	}
	term := pmf(k)
	sum := term
	for x := k; x < hi && term > sum*1e-18; x++ {
		term *= up(x)
		sum += term
	}
	return math.Min(sum, 1)
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b)
// using the Lentz continued-fraction expansion. It panics outside the
// domain a, b > 0 and 0 ≤ x ≤ 1.
func RegIncBeta(a, b, x float64) float64 {
	if a <= 0 || b <= 0 || x < 0 || x > 1 || math.IsNaN(x) {
		panic(fmt.Sprintf("stats: RegIncBeta(%v, %v, %v) out of domain", a, b, x))
	}
	if x == 0 {
		return 0
	}
	if x == 1 {
		return 1
	}
	lgA, _ := math.Lgamma(a)
	lgB, _ := math.Lgamma(b)
	lgAB, _ := math.Lgamma(a + b)
	front := math.Exp(lgAB - lgA - lgB + a*math.Log(x) + b*math.Log1p(-x))
	// Use the symmetry relation where the continued fraction converges
	// fastest: for x < (a+1)/(a+b+2), expand directly, else reflect.
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - math.Exp(lgAB-lgA-lgB+a*math.Log(x)+b*math.Log1p(-x))*
		betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 500
		eps     = 1e-14
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return h
		}
	}
	return h // converged enough for our tolerances
}

// Welford is a streaming mean/variance accumulator (Welford's algorithm),
// numerically stable for long experiment runs.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

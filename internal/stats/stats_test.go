package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	approx(t, NormalCDF(0), 0.5, 1e-15, "CDF(0)")
	approx(t, NormalCDF(1.959963984540054), 0.975, 1e-12, "CDF(1.96)")
	approx(t, NormalCDF(-1.959963984540054), 0.025, 1e-12, "CDF(-1.96)")
	approx(t, NormalCDF(3), 0.9986501019683699, 1e-12, "CDF(3)")
}

func TestNormalTailSymmetry(t *testing.T) {
	for _, x := range []float64{-4, -1, 0, 0.5, 2, 6} {
		approx(t, NormalTail(x)+NormalCDF(x), 1, 1e-12, "tail+cdf")
		approx(t, NormalTail(x), NormalCDF(-x), 1e-12, "tail symmetry")
	}
}

func TestNormalTailFar(t *testing.T) {
	// Far tail must stay positive and monotone, no cancellation to 0.
	prev := NormalTail(5.0)
	for x := 6.0; x <= 30; x += 1 {
		cur := NormalTail(x)
		if cur <= 0 || cur >= prev {
			t.Fatalf("tail not positive-monotone at x=%v: %v -> %v", x, prev, cur)
		}
		prev = cur
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-10, 1e-6, 0.001, 0.025, 0.3, 0.5, 0.7, 0.975, 0.999, 1 - 1e-9} {
		x := NormalQuantile(p)
		approx(t, NormalCDF(x), p, 1e-10*math.Max(1, 1/p), "quantile round trip")
	}
	approx(t, NormalQuantile(0.975), 1.959963984540054, 1e-9, "z_0.975")
	approx(t, NormalQuantile(0.5), 0, 1e-12, "median")
}

func TestNormalQuantileDomainPanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NormalQuantile(%v) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestLogBinomialCoeff(t *testing.T) {
	approx(t, LogBinomialCoeff(5, 2), math.Log(10), 1e-12, "C(5,2)")
	approx(t, LogBinomialCoeff(10, 0), 0, 1e-12, "C(10,0)")
	approx(t, LogBinomialCoeff(10, 10), 0, 1e-12, "C(10,10)")
	approx(t, LogBinomialCoeff(52, 5), math.Log(2598960), 1e-9, "C(52,5)")
}

func TestBinomialPMFSums(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{10, 0.5}, {20, 0.1}, {7, 0.9}, {1, 0.3}} {
		sum := 0.0
		for k := 0; k <= tc.n; k++ {
			sum += BinomialPMF(tc.n, tc.p, k)
		}
		approx(t, sum, 1, 1e-10, "PMF sums to 1")
	}
}

func TestBinomialPMFEdges(t *testing.T) {
	if BinomialPMF(10, 0.5, -1) != 0 || BinomialPMF(10, 0.5, 11) != 0 {
		t.Fatal("PMF outside support nonzero")
	}
	if BinomialPMF(10, 0, 0) != 1 || BinomialPMF(10, 1, 10) != 1 {
		t.Fatal("degenerate p PMF wrong")
	}
}

func TestBinomialTailAgainstDirectSum(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{15, 0.5}, {30, 0.25}, {12, 0.8}} {
		for k := 0; k <= tc.n+1; k++ {
			direct := 0.0
			for j := k; j <= tc.n; j++ {
				direct += BinomialPMF(tc.n, tc.p, j)
			}
			got := BinomialTail(tc.n, tc.p, k)
			approx(t, got, direct, 1e-10, "tail vs direct sum")
		}
	}
}

func TestBinomialCDFComplement(t *testing.T) {
	n, p := 25, 0.4
	for k := -1; k <= n+1; k++ {
		cdf := BinomialCDF(n, p, k)
		tail := BinomialTail(n, p, k+1)
		approx(t, cdf+tail, 1, 1e-10, "CDF + tail complement")
	}
}

func TestRegIncBetaKnown(t *testing.T) {
	// I_x(1, 1) = x (uniform CDF).
	for _, x := range []float64{0, 0.25, 0.5, 0.9, 1} {
		approx(t, RegIncBeta(1, 1, x), x, 1e-12, "I_x(1,1)")
	}
	// I_x(2, 2) = x²(3−2x).
	for _, x := range []float64{0.1, 0.5, 0.8} {
		approx(t, RegIncBeta(2, 2, x), x*x*(3-2*x), 1e-12, "I_x(2,2)")
	}
	// Symmetry: I_x(a, b) = 1 − I_{1−x}(b, a).
	approx(t, RegIncBeta(3.5, 1.25, 0.3), 1-RegIncBeta(1.25, 3.5, 0.7), 1e-12, "symmetry")
}

func TestRegIncBetaDomainPanics(t *testing.T) {
	for _, tc := range [][3]float64{{0, 1, 0.5}, {1, -1, 0.5}, {1, 1, -0.1}, {1, 1, 1.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RegIncBeta%v did not panic", tc)
				}
			}()
			RegIncBeta(tc[0], tc[1], tc[2])
		}()
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	if w.n != len(xs) {
		t.Fatalf("n = %d", w.n)
	}
	approx(t, w.Mean(), 5, 1e-12, "mean")
	approx(t, w.Variance(), 32.0/7.0, 1e-12, "variance")
	approx(t, w.StdDev(), math.Sqrt(32.0/7.0), 1e-12, "stddev")
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Fatal("empty accumulator not zeroed")
	}
	w.Add(3)
	if w.Variance() != 0 {
		t.Fatal("single-sample variance not 0")
	}
}

// Property: binomial tail is monotone non-increasing in k.
func TestQuickTailMonotone(t *testing.T) {
	f := func(nRaw uint8, pRaw uint16) bool {
		n := int(nRaw)%200 + 1
		p := float64(pRaw%1000)/1000*0.98 + 0.01
		prev := 1.0
		for k := 0; k <= n; k++ {
			cur := BinomialTail(n, p, k)
			if cur > prev+1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is the inverse of the CDF within tolerance.
func TestQuickQuantileInverse(t *testing.T) {
	f := func(raw uint32) bool {
		p := (float64(raw)/float64(math.MaxUint32))*0.998 + 0.001
		x := NormalQuantile(p)
		return math.Abs(NormalCDF(x)-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalUpperQuantile(t *testing.T) {
	// Symmetry with NormalQuantile and far-tail precision.
	approx(t, NormalUpperQuantile(0.025), 1.959963984540054, 1e-9, "upper 2.5%")
	approx(t, NormalUpperQuantile(0.5), 0, 1e-12, "upper median")
	// Far tail stays finite and monotone where 1-p would round to 1.
	z1 := NormalUpperQuantile(1e-100)
	z2 := NormalUpperQuantile(1e-200)
	if !(z2 > z1 && z1 > 20 && z2 < 40) {
		t.Fatalf("far-tail quantiles implausible: %v, %v", z1, z2)
	}
}

func TestLogBinomialCoeffPanics(t *testing.T) {
	for _, tc := range [][2]int{{-1, 0}, {3, 4}, {5, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("LogBinomialCoeff(%d,%d) did not panic", tc[0], tc[1])
				}
			}()
			LogBinomialCoeff(tc[0], tc[1])
		}()
	}
}

func TestBinomialDegenerateP(t *testing.T) {
	if BinomialPMF(5, 0, 3) != 0 || BinomialPMF(5, 1, 3) != 0 {
		t.Fatal("degenerate PMF interior nonzero")
	}
	if BinomialTail(5, 0, 1) != 0 {
		t.Fatal("tail at p=0 nonzero")
	}
	if BinomialTail(5, 1, 3) != 1 {
		t.Fatal("tail at p=1 not 1")
	}
}

func TestRegIncBetaReflectedBranch(t *testing.T) {
	// x above the continued-fraction switch point exercises the
	// reflection; verify against the symmetry identity.
	a, b, x := 2.5, 7.5, 0.9
	lhs := RegIncBeta(a, b, x)
	rhs := 1 - RegIncBeta(b, a, 1-x)
	approx(t, lhs, rhs, 1e-12, "reflection")
	if lhs <= 0.99 {
		t.Fatalf("I_0.9(2.5,7.5) = %v implausibly small", lhs)
	}
}

func TestHypergeometricTailAgainstDirectSum(t *testing.T) {
	for _, tc := range []struct{ pop, marked, draws int }{{20, 7, 5}, {50, 30, 40}, {12, 12, 4}, {9, 0, 3}, {64, 20, 64}} {
		norm := LogBinomialCoeff(tc.pop, tc.draws)
		for k := -1; k <= tc.draws+1; k++ {
			direct := 0.0
			for x := max(k, 0, tc.draws-(tc.pop-tc.marked)); x <= min(tc.draws, tc.marked); x++ {
				direct += math.Exp(LogBinomialCoeff(tc.marked, x) + LogBinomialCoeff(tc.pop-tc.marked, tc.draws-x) - norm)
			}
			approx(t, HypergeometricTail(tc.pop, tc.marked, tc.draws, k), direct, 1e-10, "tail vs direct sum")
		}
	}
}

// The regime the sketch stage sizes its bound in: eight sigma out in a
// population of thousands, where the tail is far below what a complement
// could resolve and the normal approximation is an order of magnitude low.
func TestHypergeometricTailFar(t *testing.T) {
	const pop, marked, draws = 8192, 1631, 1024
	mean := float64(draws) * marked / pop
	sigma := math.Sqrt(mean * (1 - float64(marked)/pop) * float64(pop-draws) / (pop - 1))
	prev := 1.0
	for z := 0.0; z <= 8; z++ {
		got := HypergeometricTail(pop, marked, draws, int(math.Ceil(mean+z*sigma)))
		if got <= 0 || got > prev {
			t.Fatalf("tail at %v sigma = %g after %g: not positive and decreasing", z, got, prev)
		}
		if normal := NormalTail(z); got < normal/2 || got > normal*32 {
			t.Fatalf("tail at %v sigma = %g, normal %g", z, got, normal)
		}
		prev = got
	}
	if got := HypergeometricTail(pop, marked, draws, 40); got != 1 {
		t.Fatalf("tail twelve sigma under the mean = %v, want 1", got)
	}
}

func TestHypergeometricTailPanics(t *testing.T) {
	for _, a := range [][3]int{{10, 11, 3}, {10, 3, 11}, {10, -1, 3}, {10, 3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("HypergeometricTail%v did not panic", a)
				}
			}()
			HypergeometricTail(a[0], a[1], a[2], 1)
		}()
	}
}

package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/encoding"
	"repro/internal/genome"
	"repro/internal/hdc"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestMajorityCorrelationExactValues(t *testing.T) {
	if got := MajorityCorrelation(1); got != 1 {
		t.Fatalf("rho(1) = %v", got)
	}
	// c=3: S' = sum of 2 ±1s ∈ {−2, 0, 2} w.p. ¼,½,¼.
	// rho = P(S' ≥ 0) − P(S' ≤ −2) = ¾ − ¼ = ½.
	if got := MajorityCorrelation(3); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("rho(3) = %v, want 0.5", got)
	}
	// c=2: S' ∈ {−1, +1}; tie at S'=−1 contributes 0; rho = ½.
	if got := MajorityCorrelation(2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("rho(2) = %v, want 0.5", got)
	}
}

func TestMajorityCorrelationAsymptotic(t *testing.T) {
	// rho(c) → √(2/(π·c)) for large c.
	for _, c := range []int{64, 256, 1024} {
		want := math.Sqrt(2 / (math.Pi * float64(c)))
		got := MajorityCorrelation(c)
		if math.Abs(got-want)/want > 0.02 {
			t.Fatalf("rho(%d) = %v, asymptotic %v", c, got, want)
		}
	}
}

func TestMajorityCorrelationMonotone(t *testing.T) {
	prev := 2.0
	for c := 1; c <= 100; c++ {
		cur := MajorityCorrelation(c)
		if cur <= 0 || cur > 1 {
			t.Fatalf("rho(%d) = %v out of (0,1]", c, cur)
		}
		if cur > prev+1e-12 {
			t.Fatalf("rho not non-increasing at c=%d: %v -> %v", c, prev, cur)
		}
		prev = cur
	}
}

func TestMajorityCorrelationEmpirical(t *testing.T) {
	// Monte-Carlo check of the closed form at a few capacities.
	src := rng.New(42)
	for _, c := range []int{2, 5, 16} {
		const d = 65536
		acc := hdc.NewAcc(d)
		members := make([]*hdc.HV, c)
		for i := range members {
			members[i] = hdc.RandomHV(d, src)
			acc.Add(members[i])
		}
		sealed := acc.Seal(1)
		got := float64(sealed.Dot(members[0])) / float64(d)
		want := MajorityCorrelation(c)
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("c=%d: empirical rho %v vs model %v", c, got, want)
		}
	}
}

func TestArcsineCosine(t *testing.T) {
	if got := ArcsineCosine(1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("c(1) = %v", got)
	}
	if got := ArcsineCosine(0); got != 0 {
		t.Fatalf("c(0) = %v", got)
	}
	if got := ArcsineCosine(-1); math.Abs(got+1) > 1e-12 {
		t.Fatalf("c(-1) = %v", got)
	}
	if got := ArcsineCosine(5); got != 1 { // clamped
		t.Fatalf("c(5) = %v", got)
	}
	if got := ArcsineCosine(0.5); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("c(0.5) = %v, want 1/3", got)
	}
}

func TestArcsineCosineEmpirical(t *testing.T) {
	// Two sealed bundles of w components sharing k must have cosine
	// ≈ (2/π)·asin(k/w).
	const d, w = 32768, 33
	e, err := encoding.New(encoding.Config{Dim: d, Window: w, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seq := genome.Random(w, rng.New(6))
	base := e.EncodeWindowApprox(seq, 0)
	for _, muts := range []int{4, 11, 22} {
		mut, _ := genome.SubstituteExactly(seq, muts, rng.New(uint64(muts)))
		got := base.Cosine(e.EncodeWindowApprox(mut, 0))
		want := ArcsineCosine(float64(w-muts) / float64(w))
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("muts=%d: cosine %v vs arcsine model %v", muts, got, want)
		}
	}
}

func TestModelExactNoiseSigma(t *testing.T) {
	m := Model{D: 4096, W: 32, C: 16}
	if got := m.NoiseSigma(); math.Abs(got-64) > 1e-9 {
		t.Fatalf("exact noise sigma = %v, want 64", got)
	}
	if m.Baseline() != 0 {
		t.Fatal("exact mode has nonzero baseline")
	}
}

func TestModelExactSignal(t *testing.T) {
	m := Model{D: 4096, W: 32, C: 16}
	want := 4096 * MajorityCorrelation(16)
	if got := m.SignalMean(0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("exact signal = %v, want %v", got, want)
	}
	if got := m.SignalMean(1); got != 0 {
		t.Fatalf("mutated exact signal = %v, want 0 (chain decorrelates)", got)
	}
}

func TestModelThresholdSeparates(t *testing.T) {
	m := Model{D: 8192, W: 32, C: 64}
	tau := m.Threshold(1e-3, 100)
	if tau <= 0 {
		t.Fatalf("threshold %v not positive", tau)
	}
	if sig := m.SignalMean(0); sig <= tau {
		t.Fatalf("signal %v below threshold %v at plausible geometry", sig, tau)
	}
	// FPR at the threshold must be ≤ alpha/nBuckets.
	if fpr := m.FPR(tau); fpr > 1e-5+1e-12 {
		t.Fatalf("FPR at threshold = %v", fpr)
	}
	// FNR must be small when the signal clears the threshold widely.
	if fnr := m.FNR(tau, 0); fnr > 1e-3 {
		t.Fatalf("FNR = %v", fnr)
	}
}

func TestModelThresholdPanics(t *testing.T) {
	m := Model{D: 1024, W: 16, C: 4}
	for _, a := range []float64{0, 1, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha=%v did not panic", a)
				}
			}()
			m.Threshold(a, 10)
		}()
	}
}

func TestModelApproxBaselinePositive(t *testing.T) {
	m := Model{D: 8192, W: 48, C: 8, Approx: true}
	if b := m.Baseline(); b <= 0 {
		t.Fatalf("approx baseline %v not positive", b)
	}
	// Signal decreases with mutation count, staying above baseline until
	// the agreement hits chance level.
	prev := math.Inf(1)
	for _, muts := range []int{0, 4, 12, 24} {
		sig := m.SignalMean(muts)
		if sig >= prev {
			t.Fatalf("signal not decreasing at muts=%d: %v -> %v", muts, prev, sig)
		}
		if sig <= m.Baseline() {
			t.Fatalf("signal %v at muts=%d fell below baseline %v", sig, muts, m.Baseline())
		}
		prev = sig
	}
	// At 36/48 mutations the agreement is exactly chance (12/48 = ¼):
	// the excess vanishes and the signal equals the baseline.
	if sig := m.SignalMean(36); math.Abs(sig-m.Baseline()) > 1e-9 {
		t.Fatalf("chance-level signal %v != baseline %v", sig, m.Baseline())
	}
	// Fully mutated (agreement 0 < chance ¼) drops below the baseline.
	if sig := m.SignalMean(48); sig >= m.Baseline() {
		t.Fatalf("fully mutated signal %v above baseline %v", sig, m.Baseline())
	}
}

func TestMaxCapacityExact(t *testing.T) {
	// Larger D must admit (weakly) larger capacity.
	prev := 0
	for _, d := range []int{1024, 4096, 16384} {
		c := MaxCapacity(d, 32, false, 0, 1000, 1e-3, 1e-3)
		if c < prev {
			t.Fatalf("capacity decreased with dimension: D=%d -> C=%d (prev %d)", d, c, prev)
		}
		prev = c
		if c < 1 {
			t.Fatalf("capacity %d < 1", c)
		}
	}
	// The sealed capacity at D=8192 should be in the tens–hundreds: the
	// asymptotic bound D·√(2/πC) > zGap·√D gives C ≈ 2D/(π·zGap²).
	c := MaxCapacity(8192, 32, false, 0, 1000, 1e-3, 1e-3)
	if c < 20 || c > 500 {
		t.Fatalf("sealed capacity at D=8192 = %d, outside plausible band", c)
	}
}

func TestMaxCapacityBoundary(t *testing.T) {
	// The returned capacity must be separable and capacity+1 must not.
	d, w := 4096, 32
	c := MaxCapacity(d, w, false, 0, 100, 1e-3, 1e-3)
	zGap := stats.NormalQuantile(1-1e-3/100) + stats.NormalQuantile(1-1e-3)
	if !(Model{D: d, W: w, C: c}).separable(0, zGap) {
		t.Fatalf("returned capacity %d not separable", c)
	}
	if (Model{D: d, W: w, C: c + 1}).separable(0, zGap) {
		t.Fatalf("capacity %d+1 still separable; not maximal", c)
	}
}

func TestMinDimension(t *testing.T) {
	d := MinDimension(32, 16, false, 0, 100, 1e-3, 1e-3, 1<<20)
	if d <= 0 || d%64 != 0 {
		t.Fatalf("MinDimension = %d", d)
	}
	// The found dimension must be separable, d−64 must not.
	zGap := stats.NormalQuantile(1-1e-3/100) + stats.NormalQuantile(1-1e-3)
	if !(Model{D: d, W: 32, C: 16}).separable(0, zGap) {
		t.Fatalf("MinDimension %d not separable", d)
	}
	if d > 64 && (Model{D: d - 64, W: 32, C: 16}).separable(0, zGap) {
		t.Fatalf("%d−64 still separable; not minimal", d)
	}
}

func TestMinDimensionImpossible(t *testing.T) {
	// In approx mode composition noise scales with D, so absurd error
	// targets cannot be met by raising D; MinDimension reports 0.
	if d := MinDimension(16, 1024, true, 8, 1<<20, 1e-12, 1e-12, 1<<16); d != 0 {
		t.Fatalf("impossible geometry returned D=%d", d)
	}
}

// Empirical validation of the exact-mode score distributions — the heart
// of experiment F2.
func TestModelMatchesEmpiricalExactMode(t *testing.T) {
	const d, w, c = 8192, 32, 64
	e, err := encoding.New(encoding.Config{Dim: d, Window: w, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(8)
	seq := genome.Random(c*w+w, src)
	acc := hdc.NewAcc(d)
	var members []*hdc.HV
	for i := 0; i < c; i++ {
		hv := e.EncodeWindowExact(seq, i*w)
		members = append(members, hv)
		acc.Add(hv)
	}
	sealed := acc.Seal(9)
	m := Model{D: d, W: w, C: c}

	var memberScores, noiseScores stats.Welford
	for _, mem := range members {
		memberScores.Add(float64(sealed.Dot(mem)))
	}
	for i := 0; i < 200; i++ {
		q := e.EncodeWindowExact(genome.Random(w, src), 0)
		noiseScores.Add(float64(sealed.Dot(q)))
	}
	if gotMean, want := memberScores.Mean(), m.SignalMean(0); math.Abs(gotMean-want)/want > 0.1 {
		t.Fatalf("member score mean %v vs model %v", gotMean, want)
	}
	if gotMean := noiseScores.Mean(); math.Abs(gotMean) > 4*m.NoiseSigma()/math.Sqrt(200) {
		t.Fatalf("noise mean %v not centered", gotMean)
	}
	if gotSigma, want := noiseScores.StdDev(), m.NoiseSigma(); math.Abs(gotSigma-want)/want > 0.25 {
		t.Fatalf("noise sigma %v vs model %v", gotSigma, want)
	}
}

// TestSketchPlanDerivation pins the cascade geometry of the libraries
// bench builds — the width the model cuts the planes to and the bound a
// view derives at its threshold, for both encodings — and asserts there
// is no sketch stage wherever the model cannot pay for one.
func TestSketchPlanDerivation(t *testing.T) {
	const rowWords = 8192 / 64
	// plan is the model's plan at the threshold NewLibrary sizes the
	// width against, checked against the width the library took.
	plan := func(p Params) SketchPlan {
		t.Helper()
		lib := mustLibrary(t, p)
		m := lib.modelWith(lib.params.Capacity)
		tau := m.DecisionThreshold(lib.params.Alpha, lib.params.Beta, planningBuckets, lib.params.MutTolerance)
		got := m.SketchPlan(hammingBound(p.Dim, tau))
		if got.Words != lib.sketchWords {
			t.Fatalf("library cut to %d words, the model's plan is %+v", lib.sketchWords, got)
		}
		return got
	}
	// scan_exact_wire, point_small_wire, churn_http: exact, sealed, C = 16.
	exact := Params{Dim: 8192, Window: 32, Stride: 1, Capacity: 16, Seed: 42}
	got := plan(exact)
	if got.Words != 40 || got.Bound != 1227 || math.Abs(got.Survive-0.019) > 0.001 {
		t.Errorf("D=8192 C=16 exact sealed: plan %+v, want 40 words under h1 = 1227 at FPR1 ≈ 0.019", got)
	}
	// The bound is the tightest one inside the miss budget.
	pm := (1 - MajorityCorrelation(16)) / 2
	if miss := stats.BinomialTail(64*got.Words, pm, got.Bound+1); miss > sketchMissTarget {
		t.Errorf("P(member prefix > %d) = %g exceeds %g", got.Bound, miss, sketchMissTarget)
	}
	if miss := stats.BinomialTail(64*got.Words, pm, got.Bound); miss <= sketchMissTarget {
		t.Errorf("h1 = %d is not tight: %d already meets the budget (%g)", got.Bound, got.Bound-1, miss)
	}
	// Every view of such a library scans under that same plan, however
	// full it is: in exact mode the bound does not follow the threshold.
	lib := mustLibrary(t, exact)
	src := rng.New(0xe8ac7)
	for _, n := range []int{40, 4000} {
		if err := lib.Add(genome.Record{ID: fmt.Sprint("r", n), Seq: genome.Random(n, src)}); err != nil {
			t.Fatal(err)
		}
		lib.Freeze()
		if view := viewSketch(t, lib); view != got {
			t.Errorf("exact view of %d buckets scans under %+v, the library's plan is %+v", lib.Describe().Buckets, view, got)
		}
	}

	// approx_classify_inproc: approximate, tolerance 2, derived capacity 1.
	approx := Params{Dim: 8192, Window: 32, Stride: 1, Approx: true, MutTolerance: 2, Seed: 42}
	if got := plan(approx); got.Words != 16 || got.Survive <= 0 || got.Survive > 0.01 {
		t.Errorf("approx_classify_inproc: plan %+v, want a 16-word sketch passing under 1 %% of the rows", got)
	}
	// The bound of a view is the hypergeometric one at the view's
	// threshold; bench's library calibrates to τ = 4929.6, maxHam 1631.
	m := Model{D: 8192, W: 32, C: 1, Approx: true}
	for _, tc := range []struct{ sw, h1 int }{{8, 176}, {16, 303}, {24, 421}, {32, 535}} {
		mean, sigma := m.prefixNoise(64 * tc.sw)
		h1, survive := m.sketchStage(tc.sw, 1631, 1, mean, sigma)
		if h1 != tc.h1 || survive <= 0 || survive >= 0.1 {
			t.Errorf("approximate, %d words under maxHam 1631: h1 = %d at FPR1 %g, want %d", tc.sw, h1, survive, tc.h1)
		}
		if miss := stats.HypergeometricTail(8192, 1631, 64*tc.sw, h1+1); miss > sketchMissTarget {
			t.Errorf("P(prefix > %d | row = 1631) = %g exceeds %g", h1, miss, sketchMissTarget)
		}
		if miss := stats.HypergeometricTail(8192, 1631, 64*tc.sw, h1); miss <= sketchMissTarget {
			t.Errorf("h1 = %d is not tight: %d already meets the budget (%g)", h1, h1-1, miss)
		}
		// A prefix of lines that mismatch 3 % more than the row's average
		// is sized for it; one of quiet lines is not trusted to be quiet.
		if biased, _ := m.sketchStage(tc.sw, 1631, 1.03, mean, sigma); biased <= h1 {
			t.Errorf("%d words at share 1.03: h1 = %d, no looser than the unbiased %d", tc.sw, biased, h1)
		}
		if quiet, _ := m.sketchStage(tc.sw, 1631, 0.97, mean, sigma); quiet != h1 {
			t.Errorf("%d words at share 0.97: h1 = %d, want the unbiased %d", tc.sw, quiet, h1)
		}
	}
	if got := plan(Params{Dim: 8192, Window: 32, Capacity: 16, Approx: true, MutTolerance: 2}); got.Words != 40 {
		t.Errorf("approximate at C = 16: plan %+v, want a 40-word sketch", got)
	}

	for name, p := range map[string]Params{
		"exact at the model-derived capacity": {Dim: 8192, Window: 32},
		"exact at C = 64":                     {Dim: 8192, Window: 32, Capacity: 64},
	} {
		if got := plan(p); got != (SketchPlan{Words: rowWords}) {
			t.Errorf("%s: plan %+v, want no sketch stage (the %d-word row)", name, got, rowWords)
		}
	}
	// The thin-margin geometry the golden probe suites build at, and an
	// approximate row of one cache line, which has no narrower prefix.
	if got := plan(Params{Dim: 2048, Window: 24}); got != (SketchPlan{Words: 2048 / 64}) {
		t.Errorf("D=2048 derived capacity: plan %+v, want no sketch stage", got)
	}
	if got := plan(Params{Dim: 512, Window: 16, Approx: true, MutTolerance: 2}); got != (SketchPlan{Words: 512 / 64}) {
		t.Errorf("D=512 approximate: plan %+v, want no sketch stage", got)
	}
	// A lighter load buys a narrower sketch; width is whole cache lines.
	if c8 := plan(Params{Dim: 8192, Window: 32, Capacity: 8}); c8.Words >= got.Words || c8.Words%sketchLine != 0 {
		t.Errorf("C = 8 plan %+v against C = 16 plan %+v", c8, got)
	}
}

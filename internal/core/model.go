// Package core implements the BioHD engine: reference-library
// construction by HDC memorization, exact and approximate sequence
// search against the library, and the statistical model that controls
// alignment quality (dimension, capacity, and decision thresholds).
package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Model is BioHD's statistical alignment-quality model. It predicts the
// distribution of query/bucket similarity scores from the geometry
// (dimension D, window length W, bucket capacity C, encoding mode) of a
// library of sealed binary buckets and converts target error rates into
// decision thresholds and admissible capacities.
//
// # Exact mode
//
// Window encodings are binding chains: distinct window contents encode to
// independent random hypervectors. For a bucket holding C windows,
//
//   - absent query:  score ~ N(0, D)
//   - present query: score ~ N(D·ρ(C), D·(1−ρ(C)²)) where ρ(C) is the
//     exact majority correlation (≈ √(2/πC)).
//
// # Approximate mode
//
// Window encodings are positional bundles; two windows sharing a fraction
// f of positions have expected cosine c(f) = (2/π)·asin(f) (the arcsine
// law for sign-correlated Gaussians). Random DNA windows share f₀ ≈ 1/4
// of positions by chance, so bucket members are mutually correlated and
// every bucket score carries a positive baseline. Modelling each sealed
// vector as the sign of a latent Gaussian whose correlation equals the
// agreement fraction, a sealed bucket behaves like the sign of the
// latent sum, and a query agreeing with one member on a fraction f₁ of
// positions scores
//
//	μ(f₁) = D·(2/π)·asin( (f₁+(C−1)f₀) / √(C(1+(C−1)f₀)) ),
//
// with the baseline μ(f₀) and a per-bucket composition noise from the
// binomial spread of chance matches (std √(f₀(1−f₀)/W) per window),
// plus the binarization noise √D.
//
// All predictions here are validated empirically by experiment F2.
type Model struct {
	D      int  // hypervector dimension
	W      int  // window length (bases)
	C      int  // bucket capacity (windows per library vector)
	Approx bool // approximate (bundle) encoding vs exact (bind chain)
}

// MajorityCorrelation returns ρ(c) = E[x·sign(x + S)] where x is one of
// c iid ±1 components and S the sum of the other c−1, with ties broken
// at random. This is the exact attenuation a bundled member suffers,
// ≈ √(2/(π·c)) for large c and exactly 1 for c = 1.
func MajorityCorrelation(c int) float64 {
	if c <= 0 {
		panic(fmt.Sprintf("core: MajorityCorrelation(%d)", c))
	}
	if c == 1 {
		return 1
	}
	n := c - 1 // remaining components, S ~ 2·Binomial(n, ½) − n
	// ρ = P(1+S > 0) − P(1+S < 0) = P(S ≥ 0) − P(S ≤ −2);
	// S = −1 (possible for odd n) ties and contributes 0 in expectation.
	// In binomial terms with S = 2X − n: P(X ≥ ⌈n/2⌉) − P(X ≤ ⌊(n−2)/2⌋).
	pPos := stats.BinomialTail(n, 0.5, (n+1)/2)
	pNeg := 0.0
	if n >= 2 {
		pNeg = stats.BinomialCDF(n, 0.5, (n-2)/2)
	}
	return pPos - pNeg
}

// ArcsineCosine returns c(f) = (2/π)·asin(f̂) — the expected cosine of
// two sealed positional bundles whose underlying windows agree on a
// fraction f of positions, with f clamped into [−1, 1].
func ArcsineCosine(f float64) float64 {
	if f > 1 {
		f = 1
	}
	if f < -1 {
		f = -1
	}
	return 2 / math.Pi * math.Asin(f)
}

// chanceAgreement is the probability two uniform random bases agree.
const chanceAgreement = 0.25

// memberAgreement returns the expected agreeing-position fraction of a
// query carrying muts substitutions relative to its source window:
// unmutated positions agree, mutated ones never do (substitutions are
// always to a different base).
func (m Model) memberAgreement(muts int) float64 {
	if muts < 0 {
		muts = 0
	}
	if muts > m.W {
		muts = m.W
	}
	return float64(m.W-muts) / float64(m.W)
}

// latentCorr returns the Gaussian-surrogate correlation between a query
// and a sealed bucket when the query agrees with one member window on a
// fraction f1 of positions and with everything else at chance: modelling
// each ±1 vector as the sign of a latent Gaussian whose correlation
// equals the agreement fraction (the inverse of the arcsine law), the
// bucket majority behaves like the sign of the latent sum, giving
//
//	corr = (f1 + (C−1)·f₀) / √(C·(1 + (C−1)·f₀)).
func (m Model) latentCorr(f1 float64) float64 {
	c, f0 := float64(m.C), chanceAgreement
	return (f1 + (c-1)*f0) / math.Sqrt(c*(1+(c-1)*f0))
}

// Baseline returns the expected score of a query against a bucket that
// does not contain it. Zero in exact mode; the chance-match baseline in
// approximate mode.
func (m Model) Baseline() float64 {
	if !m.Approx {
		return 0
	}
	return float64(m.D) * ArcsineCosine(m.latentCorr(chanceAgreement))
}

// NoiseSigma returns the standard deviation of the score of a query
// against a bucket that does not contain it.
func (m Model) NoiseSigma() float64 {
	d, c := float64(m.D), float64(m.C)
	if !m.Approx {
		return math.Sqrt(d)
	}
	// Approximate mode: composition noise plus residual dimension noise.
	// Each window's chance-agreement fraction has std √(f₀(1−f₀)/W);
	// propagating through the score curve gives the composition term.
	f0 := chanceAgreement
	fStd := math.Sqrt(f0 * (1 - f0) / float64(m.W))
	corr0 := m.latentCorr(f0)
	slope := 2 / math.Pi / math.Sqrt(1-corr0*corr0) // d/dcorr of (2/π)asin
	// Each of the C windows moves corr by 1/√(C(1+(C−1)f₀)) per unit
	// agreement; C independent windows add in quadrature.
	composition := d * slope * fStd / math.Sqrt(1+(c-1)*f0)
	return math.Hypot(composition, math.Sqrt(d))
}

// SignalMean returns the expected score of a query that matches one
// member window of the bucket up to muts substitutions (muts = 0 for
// exact presence). The returned value includes the baseline.
func (m Model) SignalMean(muts int) float64 {
	d := float64(m.D)
	if !m.Approx {
		if muts > 0 {
			// A single substitution decorrelates a binding chain: the
			// mutated query behaves like an absent one.
			return 0
		}
		return d * MajorityCorrelation(m.C)
	}
	return d * ArcsineCosine(m.latentCorr(m.memberAgreement(muts)))
}

// SignalSigma returns the score standard deviation for a matching query.
// The dominant terms are the same noise sources as NoiseSigma; the
// member's own contribution is deterministic to first order.
func (m Model) SignalSigma(muts int) float64 {
	return m.NoiseSigma()
}

// Threshold returns the decision threshold achieving a family-wise false
// positive rate ≤ alpha across nBuckets independent bucket probes
// (Bonferroni): τ = baseline + z(1 − α/nBuckets)·σ_noise.
func (m Model) Threshold(alpha float64, nBuckets int) float64 {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("core: Threshold alpha=%v out of (0,1)", alpha))
	}
	if nBuckets < 1 {
		nBuckets = 1
	}
	return m.Baseline() + zUpper(alpha/float64(nBuckets))*m.NoiseSigma()
}

// DecisionThreshold returns the operating threshold for a search that
// must both keep the family-wise false-positive rate ≤ alpha over
// nBuckets probes and detect matches carrying up to muts substitutions
// with false-negative rate ≤ beta. When both constraints are satisfiable
// the threshold sits midway between the two critical values, splitting
// the safety margin evenly; when they conflict, the false-positive
// constraint wins (BioHD reports fewer, trustworthy matches and lets the
// model surface the FNR via FNR()).
func (m Model) DecisionThreshold(alpha, beta float64, nBuckets, muts int) float64 {
	tauFP := m.Threshold(alpha, nBuckets)
	if beta <= 0 || beta >= 1 {
		panic(fmt.Sprintf("core: DecisionThreshold beta=%v out of (0,1)", beta))
	}
	tauFN := m.SignalMean(muts) - zUpper(beta)*m.SignalSigma(muts)
	if tauFN >= tauFP {
		return (tauFP + tauFN) / 2
	}
	return tauFP
}

// FPR returns the per-bucket false-positive probability at threshold tau.
func (m Model) FPR(tau float64) float64 {
	return stats.NormalTail((tau - m.Baseline()) / m.NoiseSigma())
}

// FNR returns the probability a true match with muts substitutions
// scores below threshold tau.
func (m Model) FNR(tau float64, muts int) float64 {
	return stats.NormalCDF((tau - m.SignalMean(muts)) / m.SignalSigma(muts))
}

// MaxCapacity returns the largest bucket capacity C for which a query
// with muts substitutions is still separable at the given error targets:
// signal − noise gap of at least z(1−alpha) + z(1−beta) noise sigmas,
// probing nBuckets buckets. Returns at least 1.
func MaxCapacity(d, w int, approx bool, muts, nBuckets int, alpha, beta float64) int {
	zGap := zUpper(alpha/float64(max(nBuckets, 1))) + zUpper(beta)
	best := 1
	for c := 1; c <= d; c *= 2 {
		m := Model{D: d, W: w, C: c, Approx: approx}
		if m.separable(muts, zGap) {
			best = c
		} else {
			break
		}
	}
	// Refine between best and 2·best by binary search.
	lo, hi := best, best*2
	for lo+1 < hi {
		mid := (lo + hi) / 2
		m := Model{D: d, W: w, C: mid, Approx: approx}
		if m.separable(muts, zGap) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func (m Model) separable(muts int, zGap float64) bool {
	return m.SignalMean(muts)-m.Baseline() >= zGap*m.NoiseSigma()
}

// MinDimension returns the smallest word-aligned dimension D at which a
// query with muts substitutions is separable for the given geometry and
// error targets. It returns 0 if no D up to maxD suffices.
func MinDimension(w, c int, approx bool, muts, nBuckets int, alpha, beta, maxD float64) int {
	zGap := zUpper(alpha/float64(max(nBuckets, 1))) + zUpper(beta)
	for d := 64; float64(d) <= maxD; d *= 2 {
		m := Model{D: d, W: w, C: c, Approx: approx}
		if m.separable(muts, zGap) {
			// Binary search down within [d/2, d] at 64 granularity.
			lo, hi := d/2, d
			for lo+64 < hi {
				mid := (lo + hi) / 2 / 64 * 64
				mm := Model{D: mid, W: w, C: c, Approx: approx}
				if mm.separable(muts, zGap) {
					hi = mid
				} else {
					lo = mid
				}
			}
			return hi
		}
	}
	return 0
}

// sketchMissTarget is the largest probability the sketch stage may drop
// a member row with: 1e-15 per row is twelve orders under the default
// β = 1e-3 it is charged against, so the cascade's false negatives are
// invisible in any FNR the model reports.
const sketchMissTarget = 1e-15

// sketchLine is the granularity of sketch widths, in words: one cache
// line, the unit the range kernel and the memory system both move.
const sketchLine = 8

// SketchPlan is the geometry of the probe's two-stage cascade under one
// full-row Hamming bound: stage 1 tests the first Words words of each
// row against the same prefix of the query under Bound, stage 2 takes
// the survivors' full rows under the bound itself.
type SketchPlan struct {
	// Words is the sketch width. It equals the row width, D/64, when
	// the model cannot pay for a prefix; the probe then has no separate
	// stage 1 — the plane it scans is the arena itself.
	Words int
	// Bound is h₁, the largest prefix Hamming distance stage 1 keeps
	// (see sketchStage). Unused when Words is the row width.
	Bound int
	// Survive is FPR₁, the model's probability that a row not holding
	// the query survives stage 1; 0 when Words is the row width.
	Survive float64
}

// SketchPlan picks the cascade's sketch width for a library whose rows
// will be held to about maxHam: of the line-aligned prefixes, the one
// that minimises the expected words read per row,
//
//	sw + FPR₁(sw)·D/64,
//
// a survivor costing a whole row because it is re-read from the arena,
// with the bound and FPR₁ of each width from sketchStage under the
// model's own noise distribution and an average prefix. None is taken
// unless it beats reading every row in full — thin margins (an exact
// capacity derived from the error targets, small test geometries) never
// do. The width is a property of the library (every segment cuts its
// plane to it); the bound is re-derived for every view, from the
// threshold in force there.
func (m Model) SketchPlan(maxHam int) SketchPlan {
	rowWords := m.D / 64
	best := SketchPlan{Words: rowWords}
	if m.C < 1 {
		return best
	}
	cost := float64(rowWords)
	for sw := sketchLine; sw < rowWords; sw += sketchLine {
		mean, sigma := m.prefixNoise(64 * sw)
		h1, survive := m.sketchStage(sw, maxHam, 1, mean, sigma)
		if c := sketchCost(sw, survive, rowWords); c < cost {
			cost, best = c, SketchPlan{Words: sw, Bound: h1, Survive: survive}
		}
	}
	return best
}

// sketchCost is the cascade's objective: the expected words read per
// row by a stage 1 of sw words that passes a share survive of the rows
// on to a full-row test.
func sketchCost(sw int, survive float64, rowWords int) float64 {
	return float64(sw) + survive*float64(rowWords)
}

// prefixNoise returns the model's a-priori mean and standard deviation
// of the Hamming distance, over the first n dimensions, between a query
// and a sealed row that does not hold it: the baseline shrinks with
// n/D, and of NoiseSigma's two terms the per-dimension one (each of the
// n dimensions differs independently at the baseline's rate) shrinks
// with √(n/D) while the rest — bucket composition, which moves every
// dimension together — shrinks with n/D.
func (m Model) prefixNoise(n int) (mean, sigma float64) {
	d, frac := float64(m.D), float64(n)/float64(m.D)
	differ := (1 - m.Baseline()/d) / 2
	dimension := d * differ * (1 - differ)
	composition := math.Max(m.NoiseSigma()*m.NoiseSigma()/4-dimension, 0)
	return float64(n) * differ, math.Sqrt(frac*frac*composition + frac*dimension)
}

// sketchStage sizes stage 1 of the cascade for a prefix of sw words of
// rows that stage 2 holds to maxHam: the prefix bound h₁ and FPR₁, the
// probability that a row not holding the query survives it. It is the
// one derivation of the stage-1 bound, for both encodings.
//
// In exact mode the D dimensions of a query/row pair are
// independent: against a row that holds the query each differs with
// probability (1−ρ(C))/2, against any other row with probability ½, so
// the Hamming distance over the first n bits is Binomial(n, ·) exactly
// and both stage-1 error rates are binomial tails (at eight sigma the
// normal approximation is off by about 2×). h₁ is the tightest bound
// that keeps the member miss probability within sketchMissTarget at the
// worst-case occupancy C, tightened to maxHam should that be smaller (a
// prefix distance never exceeds the row's). The remaining arguments are
// not used.
//
// In approximate mode the dimensions are not independent — how many
// positions the query happens to share with a bucket's windows moves
// all of them together — and what a member scores depends on the
// mutations it carries, so there is no member distribution to take a
// tail of. The bound conditions on the row instead: given that a pair's
// full-row distance is H, which H of the D dimensions differ is
// (nearly) a uniform draw, so the prefix holds a Hypergeometric(D, H,
// n) share of them whatever moved H, and that law is stochastically
// largest at H = maxHam. h₁ is the smallest h with P(prefix > h | row =
// maxHam) ≤ sketchMissTarget: every row stage 2 would accept survives
// stage 1, not only members within the tolerance. "Nearly", because the
// four-symbol item memory makes some 512-dimension lines mismatch a few
// per cent more often than others, the same lines for every pair; share
// is the prefix's mismatch rate over the row's as the library measured
// it on its own encoder (Library.probePrefix), and where it exceeds 1
// the draw is sized as if the row differed in share·maxHam dimensions.
// (Near pairs show the bias of random pairs slightly damped, so a prefix
// of quiet lines is sized as an average one rather than trusted to be
// quiet.) FPR₁ is noisePrefixCDF at h₁, for a prefix whose distance to
// rows that do not hold the query has the given mean and standard
// deviation — the model's a priori (prefixNoise), or what a view
// measured on its own planes.
func (m Model) sketchStage(sw, maxHam int, share, noiseMean, noiseSigma float64) (h1 int, survive float64) {
	n := 64 * sw
	if !m.Approx {
		pMember := (1 - MajorityCorrelation(m.C)) / 2
		h1 = sort.Search(n, func(h int) bool {
			return stats.BinomialTail(n, pMember, h+1) <= sketchMissTarget
		})
		h1 = min(h1, maxHam)
		return h1, stats.BinomialCDF(n, 0.5, h1)
	}
	if maxHam < 0 || !(noiseSigma > 0) {
		return maxHam, 1 // nothing passes stage 2, or there are no rows to measure
	}
	differing := min(int(math.Ceil(math.Max(share, 1)*float64(maxHam))), m.D)
	h1 = sort.Search(min(n, maxHam), func(h int) bool {
		return stats.HypergeometricTail(m.D, differing, n, h+1) <= sketchMissTarget
	})
	return h1, m.noisePrefixCDF(n, h1, noiseMean, noiseSigma)
}

// noisePrefixCDF returns P(distance over the first n dimensions ≤ h)
// for an approximate-mode query against a sealed row that does not hold
// it, given that distance's mean and standard deviation. The spread has
// two sources. The query shares a ~ Binomial(C·W, ¼) positions with the
// bucket's windows by chance, which sets the correlation of the pair and
// moves all dimensions together; around it each dimension differs
// independently. So the distance is a mixture over a of binomials —
// normals here, n being hundreds — and its lower tail, which is what
// survives stage 1, is the binomial's skew toward high agreement seen
// through the score curve: one normal of the right variance puts 2.5×
// too little there at sixteen words. The model supplies the curve's
// shape (latent correlation → arcsine law); where it sits and how far
// it spreads are fitted to mean and to what sigma leaves after the
// per-dimension term.
func (m Model) noisePrefixCDF(n, h int, mean, sigma float64) float64 {
	c, trials := float64(m.C), m.C*m.W
	pmf := make([]float64, trials+1)
	curve := make([]float64, trials+1)
	var curveMean, curveVar float64
	for a := range pmf {
		pmf[a] = stats.BinomialPMF(trials, chanceAgreement, a)
		curve[a] = ArcsineCosine(float64(a) / float64(m.W) / math.Sqrt(c*(1+(c-1)*chanceAgreement)))
		curveMean += pmf[a] * curve[a]
	}
	for a := range pmf {
		curveVar += pmf[a] * (curve[a] - curveMean) * (curve[a] - curveMean)
	}
	differ := mean / float64(n)
	composition := math.Sqrt(math.Max(sigma*sigma-float64(n)*differ*(1-differ), 0) / curveVar)
	p := 0.0
	for a := range pmf {
		// More agreement than average, less distance. A spread of 0 (the
		// clamp, at agreements the binomial never reaches) divides to
		// ±Inf, which NormalCDF takes to 0 or 1.
		differ := math.Max(0, math.Min(1, (mean-composition*(curve[a]-curveMean))/float64(n)))
		spread := math.Sqrt(float64(n) * differ * (1 - differ))
		p += pmf[a] * stats.NormalCDF((float64(h)+0.5-float64(n)*differ)/spread)
	}
	return p
}

// zUpper is NormalUpperQuantile with the tail probability clamped away
// from 0, so Bonferroni divisions of already-tiny alphas (which underflow
// to 0) degrade to a finite ~37σ threshold instead of a domain panic.
func zUpper(p float64) float64 {
	if !(p > 1e-300) { // also catches NaN
		p = 1e-300
	}
	if p > 0.5 {
		p = 0.5
	}
	return stats.NormalUpperQuantile(p)
}

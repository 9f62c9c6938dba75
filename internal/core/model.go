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
// (dimension D, window length W, bucket capacity C, encoding mode,
// sealed or raw counters) and converts target error rates into decision
// thresholds and admissible capacities.
//
// # Exact mode
//
// Window encodings are binding chains: distinct window contents encode to
// independent random hypervectors. For a bucket holding C windows,
//
//   - absent query, sealed bucket:  score ~ N(0, D)
//   - absent query, raw counters:   score ~ N(0, C·D)
//   - present query, sealed bucket: score ~ N(D·ρ(C), D·(1−ρ(C)²)) where
//     ρ(C) is the exact majority correlation (≈ √(2/πC)),
//   - present query, raw counters:  score ~ N(D, (C−1)·D).
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
// plus the binarization noise √D. Raw-counter buckets score linearly:
// μ = D·(c(f₁) + (C−1)·c(f₀)).
//
// All predictions here are validated empirically by experiment F2.
type Model struct {
	D      int  // hypervector dimension
	W      int  // window length (bases)
	C      int  // bucket capacity (windows per library vector)
	Approx bool // approximate (bundle) encoding vs exact (bind chain)
	Sealed bool // sealed binary bucket vs raw counters
}

// Validate checks the model geometry.
func (m Model) Validate() error {
	if m.D <= 0 || m.W <= 0 || m.C <= 0 {
		return fmt.Errorf("core: model %+v has non-positive geometry", m)
	}
	return nil
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

// rho returns the bundle attenuation for this model's capacity in the
// sealed case, or 1 for raw counters (no binarization loss).
func (m Model) rho() float64 {
	if m.Sealed {
		return MajorityCorrelation(m.C)
	}
	return 1
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
	d := float64(m.D)
	if m.Sealed {
		return d * ArcsineCosine(m.latentCorr(chanceAgreement))
	}
	return d * float64(m.C) * ArcsineCosine(chanceAgreement)
}

// NoiseSigma returns the standard deviation of the score of a query
// against a bucket that does not contain it.
func (m Model) NoiseSigma() float64 {
	d, c := float64(m.D), float64(m.C)
	if !m.Approx {
		if m.Sealed {
			return math.Sqrt(d)
		}
		return math.Sqrt(c * d)
	}
	// Approximate mode: composition noise plus residual dimension noise.
	// Each window's chance-agreement fraction has std √(f₀(1−f₀)/W);
	// propagating through the score curve gives the composition term.
	f0 := chanceAgreement
	fStd := math.Sqrt(f0 * (1 - f0) / float64(m.W))
	var composition, dimension float64
	if m.Sealed {
		corr0 := m.latentCorr(f0)
		slope := 2 / math.Pi / math.Sqrt(1-corr0*corr0) // d/dcorr of (2/π)asin
		// Each of the C windows moves corr by 1/√(C(1+(C−1)f₀)) per unit
		// agreement; C independent windows add in quadrature.
		composition = d * slope * fStd / math.Sqrt(1+(c-1)*f0)
		dimension = math.Sqrt(d)
	} else {
		slope := 2 / math.Pi / math.Sqrt(1-f0*f0)
		composition = d * slope * fStd * math.Sqrt(c)
		dimension = math.Sqrt(c * d)
	}
	return math.Hypot(composition, dimension)
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
		return d * m.rho()
	}
	if m.Sealed {
		return d * ArcsineCosine(m.latentCorr(m.memberAgreement(muts)))
	}
	cMember := ArcsineCosine(m.memberAgreement(muts))
	cChance := ArcsineCosine(chanceAgreement)
	return m.Baseline() + d*(cMember-cChance)
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
func MaxCapacity(d, w int, approx, sealed bool, muts, nBuckets int, alpha, beta float64) int {
	zGap := zUpper(alpha/float64(maxInt(nBuckets, 1))) + zUpper(beta)
	best := 1
	for c := 1; c <= d; c *= 2 {
		m := Model{D: d, W: w, C: c, Approx: approx, Sealed: sealed}
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
		m := Model{D: d, W: w, C: mid, Approx: approx, Sealed: sealed}
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
func MinDimension(w, c int, approx, sealed bool, muts, nBuckets int, alpha, beta, maxD float64) int {
	zGap := zUpper(alpha/float64(maxInt(nBuckets, 1))) + zUpper(beta)
	for d := 64; float64(d) <= maxD; d *= 2 {
		m := Model{D: d, W: w, C: c, Approx: approx, Sealed: sealed}
		if m.separable(muts, zGap) {
			// Binary search down within [d/2, d] at 64 granularity.
			lo, hi := d/2, d
			for lo+64 < hi {
				mid := (lo + hi) / 2 / 64 * 64
				mm := Model{D: mid, W: w, C: c, Approx: approx, Sealed: sealed}
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

// SketchPlan is the geometry of the probe's two-stage cascade for one
// library: stage 1 tests the first Words words of each row against the
// same prefix of the query under Bound, stage 2 takes the survivors'
// full rows under the view's threshold.
type SketchPlan struct {
	// Words is the sketch width. It equals the row width, D/64, when
	// the model cannot pay for a prefix; the probe then has no separate
	// stage 1 — the plane it scans is the arena itself.
	Words int
	// Bound is h₁, the largest prefix Hamming distance stage 1 keeps:
	// the smallest h with P(member prefix distance > h) ≤ 1e-15 at
	// capacity C. Unused when Words is the row width.
	Bound int
	// Survive is FPR₁, the model's probability that a row not holding
	// the query survives stage 1; 0 when Words is the row width.
	Survive float64
}

// SketchPlan derives the cascade geometry. In exact sealed mode the
// D dimensions of a query/row pair are independent: against a row that
// holds the query each differs with probability (1−ρ(C))/2, against any
// other row with probability ½, so the Hamming distance over the first
// n bits is Binomial(n, ·) exactly and both stage-1 error rates are
// binomial tails (at eight sigma the normal approximation is off by
// about 2×). For each line-aligned prefix the bound is the tightest one
// that keeps the member miss probability within sketchMissTarget at the
// worst-case occupancy C, and the width chosen minimises the expected
// words read per row,
//
//	sw + FPR₁(sw)·D/64,
//
// a survivor costing a whole row because it is re-read from the arena.
// No prefix is offered where that model does not hold — approximate
// mode (bucket composition correlates the dimensions) and raw counters
// (the scan is not a Hamming scan) — and none is taken unless it beats
// reading every row in full, which thin margins (a capacity derived
// from the error targets, small test geometries) never do.
func (m Model) SketchPlan() SketchPlan {
	rowWords := m.D / 64
	best := SketchPlan{Words: rowWords}
	if m.Approx || !m.Sealed || m.C < 1 {
		return best
	}
	cost := float64(rowWords)
	pMember := (1 - MajorityCorrelation(m.C)) / 2
	for sw := sketchLine; sw < rowWords; sw += sketchLine {
		n := 64 * sw
		h1 := sort.Search(n, func(h int) bool {
			return stats.BinomialTail(n, pMember, h+1) <= sketchMissTarget
		})
		survive := stats.BinomialCDF(n, 0.5, h1)
		if c := float64(sw) + survive*float64(rowWords); c < cost {
			cost, best = c, SketchPlan{Words: sw, Bound: h1, Survive: survive}
		}
	}
	return best
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

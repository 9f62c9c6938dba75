package core

import (
	"math"

	"repro/internal/bitvec"
	"repro/internal/genome"
	"repro/internal/hdc"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Calibration holds the empirically measured score distributions of a
// frozen approximate-mode library and the operating threshold derived
// from them.
//
// The a-priori Model is exact for independent bucket members (C = 1, or
// stride ≥ window), but at stride < window consecutive windows overlap
// and their mutual correlations interact with the majority nonlinearity;
// closed forms then drift by 10–20%. BioHD therefore calibrates the
// operating point at Freeze time from deterministic, seeded probes: the
// noise distribution from random queries against sampled buckets, and
// the signal distribution from the library's own member windows with
// MutTolerance substitutions injected. Experiment F2 reports both the
// a-priori model and the calibrated distributions.
type Calibration struct {
	NoiseMean  float64 // mean score of absent queries
	NoiseStd   float64 // std of absent-query scores
	SignalMean float64 // mean score of tolerance-mutated member queries
	SignalStd  float64 // std of those scores
	Tau        float64 // derived operating threshold
	Samples    int     // noise probes scored; the signal side scores calibrationProbes
}

// calibrationProbes is the number of noise and signal probes drawn, and
// calibrationRedraws the rows a noise probe draws at most to find one it
// can score.
const (
	calibrationProbes  = 192
	calibrationRedraws = 64
)

// calibrate measures noise and signal score distributions on a view
// and derives the operating threshold. Deterministic given the library
// seed and the view's contents — every mutation recalibrates the view
// it publishes, and a view with no tombstones calibrates identically to
// the pre-segmented monolith.
func (l *Library) calibrate(sn *hdcView) Calibration {
	src := rng.New(l.params.Seed ^ 0xca11b7a7e)
	w := l.params.Window
	sc := l.getBlockScratch() // every probe encodes into the one pooled hypervector
	defer l.putBlockScratch(sc)
	hv := sc.hvs[0]
	// A bucket's score is against its whole row (wholeRow); one whose
	// row is a sketch of a removed window has none and is not scored.
	score := func(g int) (float64, bool) {
		row := l.wholeRow(sn, g, sc.hvs[1], sc.acc)
		if row == nil {
			return 0, false
		}
		return float64(row.Dot(hv)), true
	}

	// Noise side: random queries against randomly sampled buckets. A
	// probe whose row cannot be scored draws another row, so only a view
	// with few live rows scores fewer than calibrationProbes. Whole rows
	// always score, so a view without sketch rows of removed windows
	// never redraws.
	var noise stats.Welford
	scored := 0
	for i := 0; i < calibrationProbes; i++ {
		q := genome.Random(w, src)
		l.enc.EncodeWindowApproxInto(hv, sc.acc, q, 0)
		for range calibrationRedraws {
			if s, ok := score(src.Intn(sn.numBuckets())); ok {
				noise.Add(s)
				scored++
				break
			}
		}
	}

	// Signal side: member windows re-queried with MutTolerance
	// substitutions, scored against their own bucket. Tombstoned windows
	// cannot be re-queried (their sequence is gone), so sampling runs
	// over each bucket's live members; buckets with no live member —
	// emptied by Remove — are skipped entirely.
	var nonEmpty []int
	var live [][]WindowRef
	for g := 0; g < sn.numBuckets(); g++ {
		members := sn.windows(g)
		kept := members
		for _, wr := range members {
			if sn.refs[wr.Ref].Seq == nil {
				// Tombstones present: switch to a filtered copy. Untouched
				// buckets keep sharing the snapshot's slice, so the draw
				// sequence matches the tombstone-free case exactly.
				kept = make([]WindowRef, 0, len(members))
				for _, wr2 := range members {
					if sn.refs[wr2.Ref].Seq != nil {
						kept = append(kept, wr2)
					}
				}
				break
			}
		}
		if len(kept) > 0 {
			nonEmpty = append(nonEmpty, g)
			live = append(live, kept)
		}
	}
	var signal stats.Welford
	for i := 0; i < calibrationProbes && len(nonEmpty) > 0; i++ {
		j := src.Intn(len(nonEmpty))
		members := live[j]
		wr := members[src.Intn(len(members))]
		window := sn.refs[wr.Ref].Seq.Slice(int(wr.Off), int(wr.Off)+w)
		if l.params.MutTolerance > 0 {
			window, _ = genome.SubstituteExactly(window, l.params.MutTolerance, src)
		}
		l.enc.EncodeWindowApproxInto(hv, sc.acc, window, 0)
		s, _ := score(nonEmpty[j]) // the bucket has a live member
		signal.Add(s)
	}

	cal := Calibration{
		NoiseMean:  noise.Mean(),
		NoiseStd:   noise.StdDev(),
		SignalMean: signal.Mean(),
		SignalStd:  signal.StdDev(),
		Samples:    scored,
	}
	// Threshold: FP bound from the noise quantile (Bonferroni over
	// buckets), FN bound from the signal quantile; take the midpoint when
	// the margin allows, else the FP bound wins (report fewer,
	// trustworthy matches).
	tauFP := cal.NoiseMean + zUpper(l.params.Alpha/float64(max(sn.numBuckets(), 1)))*cal.NoiseStd
	tauFN := cal.SignalMean - zUpper(l.params.Beta)*cal.SignalStd
	if tauFN >= tauFP {
		cal.Tau = (tauFP + tauFN) / 2
	} else {
		cal.Tau = tauFP
	}
	// Guard against degenerate probe spreads (e.g. a one-bucket library)
	// and against a view with no row to score.
	if scored == 0 || math.IsNaN(cal.Tau) || math.IsInf(cal.Tau, 0) {
		cal.Tau = l.threshold(sn.maxOccupancy(), sn.numBuckets())
	}
	return cal
}

// Calibration returns the calibration of the current view. The
// boolean is false for exact-mode libraries (the a-priori model is
// exact there) and for unfrozen libraries.
func (l *Library) Calibration() (Calibration, bool) {
	v := l.snap.Load()
	if v == nil || !l.params.Approx {
		return Calibration{}, false
	}
	return hdcOf(v).cal, true
}

// sketchProbes is how many random windows a library encodes once to
// measure its sketch prefix with; sketchProbeRows is how many rows of a
// view each of them is then scored against.
const (
	sketchProbes    = 128
	sketchProbeRows = 32
)

// probePrefix encodes sketchProbes seeded random windows and returns
// two things about the first sw words of the approximate encoder's
// output: the windows' own prefixes, packed back to back, which every
// view scores against its planes (measurePrefixNoise), and the prefix's share
// of a pair's differing dimensions — its mismatch rate relative to the
// whole row's. A uniform spread is 1. It is not quite that, because only
// four item vectors stand behind every dimension: where they happen to
// agree at the coordinates a dimension draws on, that dimension moves
// less with the window's content, and such dimensions are not evenly
// spread over the cache lines (a few per cent a line at D = 8192, the
// same lines for near pairs as for random ones). The share is a
// property of the item memory and the width, so it is computed here,
// once per library and from the encoder alone — over all
// sketchProbes·(sketchProbes−1)/2 pairs of the windows, whose dimension
// noise averages out to under 0.1 % — not from the library's rows or the
// calibration probes: it is the same number for a library that was built
// and one that was loaded, whose stored calibration is never re-derived.
func (l *Library) probePrefix(sw int) (prefixes []uint64, share float64) {
	src := rng.New(l.params.Seed ^ 0x5ea1ed5ca1e)
	acc := hdc.NewAcc(l.params.Dim)
	hvs := make([][]uint64, sketchProbes)
	for i := range hvs {
		hv := hdc.NewHV(l.params.Dim)
		l.enc.EncodeWindowApproxInto(hv, acc, genome.Random(l.params.Window, src), 0)
		hvs[i] = hv.Words()
		prefixes = append(prefixes, hvs[i][:sw]...)
	}
	var prefix, row int
	for i, a := range hvs {
		for _, b := range hvs[:i] {
			prefix += bitvec.HammingWords(a[:sw], b[:sw])
			row += bitvec.HammingWords(a, b)
		}
	}
	if row == 0 {
		return prefixes, 1
	}
	return prefixes, float64(prefix) / float64(row) * float64(l.params.Dim/64) / float64(sw)
}

// measurePrefixNoise measures, on a view's own sketch planes, the
// distance between a query's prefix and the prefix of a row that does
// not hold it: each of the library's probe prefixes against
// sketchProbeRows seeded random rows. It is what the view's predicted
// survivor ratio is fitted to. The calibration's NoiseMean and NoiseStd
// describe the same rows, but from 192 scores, which leave the standard
// deviation ±5 % (16 % was seen) — a factor of several in a tail four
// sigma out — and they are of the whole row; these 4 096 distances of
// the prefix itself (±1.1 %) cost a view 0.13 ms beside the 3 ms its
// calibration takes. sigma is 0 for a view without rows.
func (l *Library) measurePrefixNoise(sn *hdcView) (mean, sigma float64) {
	if sn.nBkts == 0 {
		return 0, 0
	}
	src := rng.New(l.params.Seed ^ 0x9e0b5e)
	sw := l.sketchWords
	var dist stats.Welford
	for at := 0; at < len(l.sketchPrefixes); at += sw {
		for r := 0; r < sketchProbeRows; r++ {
			seg, i := sn.locate(src.Intn(sn.nBkts))
			dist.Add(float64(bitvec.HammingWords(seg.planeRow(i), l.sketchPrefixes[at:at+sw])))
		}
	}
	return dist.Mean(), dist.StdDev()
}

package core

import (
	"fmt"
	"math"

	"repro/internal/genome"
	"repro/internal/hdc"
)

// Candidate is an unverified bucket hit: the HDC similarity stage's raw
// output, before sequence-level refinement. Bucket is a global index
// across the view's segments.
type Candidate struct {
	Bucket int
	Score  float64
}

// scanPlanFor derives the probe plan of one view. Probes read it from
// the view they scan — not from the library's latest one — so a probe
// racing a mutation stays internally consistent.
func (l *Library) scanPlanFor(sn *hdcView) scanPlan {
	tau := sn.cal.Tau
	if !l.params.Approx {
		tau = l.threshold(sn.maxOccupancy(), sn.numBuckets())
	}
	pl := scanPlan{tau: tau, maxHam: hammingBound(l.params.Dim, tau)}
	pl.sketchBound = pl.maxHam
	// The stage-1 bound follows the threshold, and in approximate mode
	// the threshold is calibrated per view; whether the plane is worth
	// streaming at that bound is the same cost expression that sized it,
	// where there is an arena to decline to.
	if sw, rowWords := l.sketchWords, l.params.Dim/64; sw < rowWords {
		var noiseMean, noiseSigma float64
		if l.params.Approx {
			noiseMean, noiseSigma = l.measurePrefixNoise(sn)
		}
		h1, survive := l.modelWith(l.params.Capacity).sketchStage(sw, pl.maxHam, l.sketchShare, noiseMean, noiseSigma)
		pl.oneStage = l.rowWords == sw
		if pl.oneStage || sketchCost(sw, survive, rowWords) < float64(rowWords) {
			pl.sketch, pl.sketchBound, pl.survive = true, h1, survive
		}
	}
	return pl
}

// hammingBound turns a score threshold into a full-row Hamming bound: an
// integer dot passes score ≥ τ iff dot ≥ ⌈τ⌉, and dot = D − 2·hamming,
// so a sealed row passes iff hamming ≤ ⌊(D − ⌈τ⌉)/2⌋. The arithmetic
// shift is a floor division — Go's / truncates toward zero, which for a
// negative numerator (τ > D) would admit distance 0.
func hammingBound(dim int, tau float64) int {
	return (dim - int(math.Ceil(tau))) >> 1
}

// Probe scores an encoded query window against every bucket and returns
// the candidates above the model threshold. This is the pure HDC search
// stage — exactly the computation the PIM architecture executes in
// memory. The library must be frozen. It is the one-query case of the
// blocked scan.
//
// The scan visits segments in order; within each segment, sealed
// libraries run the two-stage cascade of the view's plan — the range
// kernel streams the sketch plane under the stage-1 bound, the few
// surviving rows are held in full to the threshold's Hamming bound. The
// candidates (order, scores, excesses) are those of a serial full-row
// scan, independent of how the buckets are cut into segments, up to the
// model's 1e-15 stage-1 miss per accepted row (Model.sketchStage); at
// one window a row, a superset of them (DESIGN §7.5). Stats count
// the full scan — BucketProbes is the work the PIM hardware would do,
// not the words the software kernel happened to touch.
//
//biohd:hotpath
func (l *Library) Probe(hv *hdc.HV, stats *Stats) ([]Candidate, error) {
	v, err := l.Pin("Probe")
	if err != nil {
		return nil, err
	}
	defer l.Unpin()
	if hv.Dim() != l.params.Dim {
		return nil, fmt.Errorf("core: query dimension %d != library %d", hv.Dim(), l.params.Dim)
	}
	sc := l.getBlockScratch()
	defer l.putBlockScratch(sc)
	sc.one[0] = hv
	dsts := sc.cands[:1]
	dsts[0] = dsts[0][:0]
	l.probeBlockInto(v, dsts, sc.one[:], sc)
	sc.one[0] = nil
	if stats != nil {
		stats.BucketProbes += v.nBkts
		stats.CandidateBuckets += len(dsts[0])
	}
	if len(dsts[0]) == 0 {
		return nil, nil
	}
	//lint:ignore hotpath the result slice is caller-owned; the zero-alloc path is probeBlockInto with pooled scratch
	return append([]Candidate(nil), dsts[0]...), nil
}

// ProbeMulti probes a batch of encoded query windows in blocks of up
// to BlockWidth queries: the plane is streamed from memory once per
// block, each line of it compared with every query in the block,
// amortizing the memory traffic that dominates a large scan.
// The result is exactly
// len(hvs) independent probes — out[i] is identical to what
// Probe(hvs[i], ...) returns (same candidates, order, scores, excesses,
// nil on a miss) — and stats count the same modeled work: every query
// scans every bucket, whatever the software kernel skipped.
//
//biohd:hotpath
func (l *Library) ProbeMulti(hvs []*hdc.HV, stats *Stats) ([][]Candidate, error) {
	v, err := l.Pin("ProbeMulti")
	if err != nil {
		return nil, err
	}
	defer l.Unpin()
	for _, hv := range hvs {
		if hv.Dim() != l.params.Dim {
			return nil, fmt.Errorf("core: query dimension %d != library %d", hv.Dim(), l.params.Dim)
		}
	}
	//lint:ignore hotpath the result spine is caller-owned; per-query slices materialize only on hits
	out := make([][]Candidate, len(hvs))
	sc := l.getBlockScratch()
	defer l.putBlockScratch(sc)
	total := 0
	for base := 0; base < len(hvs); base += BlockWidth {
		hi := min(base+BlockWidth, len(hvs))
		// Each dst starts nil: probeBlockRange appends, so queries that
		// miss every bucket never allocate a candidate slice at all.
		dsts := out[base:hi]
		l.ctr.blockedProbes.Add(1)
		l.ctr.blockedWindows.Add(int64(hi - base))
		l.probeBlockInto(v, dsts, hvs[base:hi], sc)
		for j := range dsts {
			total += len(dsts[j])
		}
	}
	if stats != nil {
		stats.BucketProbes += len(hvs) * v.nBkts
		stats.CandidateBuckets += total
	}
	return out, nil
}

// probeBlockInto fills dsts[j] with the candidates of hvs[j] for one
// block of at most BlockWidth queries, appending to whatever each dst
// already holds. Candidate content and order are identical to one
// serial scan per query; the only difference is that the plane is read
// from memory once per block instead of once per query.
// Segments are scanned in order, each whole, on the caller's goroutine.
// Callers must have pinned v and validated query dimensions; sc
// supplies the range kernel's query block.
func (l *Library) probeBlockInto(v *View, dsts [][]Candidate, hvs []*hdc.HV, sc *blockScratch) {
	sn := hdcOf(v)
	l.ctr.bucketProbes.Add(int64(len(hvs)) * int64(sn.numBuckets()))
	// Every segment's plane is the library's sketch width wide.
	sc.scan.Reset(l.sketchWords)
	for _, hv := range hvs {
		sc.scan.Add(hv.Words())
	}
	for k, seg := range sn.segs {
		seg.probeBlockRange(dsts, hvs, &sn.plan, sn.offs[k], sc.scan, &l.ctr)
	}
}

// verify refines candidates into matches by direct comparison of the
// query window against each member window of each candidate bucket, 32
// packed bases at a time (genome.Mismatches), accepting distance ≤ tol.
// Windows whose reference has been removed (tombstones) are skipped —
// their contribution to the bucket vector lingers until Compact, but they
// can never match. Matches are appended to out, which is returned
// (append-style, so Lookup accumulates across alignments without an
// intermediate slice).
func (l *Library) verify(sn *hdcView, out []Match, q *genome.Sequence, qOff int, cands []Candidate, tol int, stats *Stats) []Match {
	w := l.params.Window
	for _, c := range cands {
		for _, wr := range sn.windows(c.Bucket) {
			ref := sn.refs[wr.Ref].Seq
			if ref == nil {
				continue // tombstoned
			}
			dist := genome.Mismatches(ref, int(wr.Off), q, qOff, w, tol)
			if stats != nil {
				stats.WindowsVerified++
				stats.BaseComparisons += w // full window budgeted
			}
			if dist <= tol {
				out = append(out, Match{
					Ref: int(wr.Ref), Off: int(wr.Off), QueryOff: qOff, Distance: dist,
				})
			}
		}
	}
	return out
}

// probeBlock is Kernel.Probe: the block's windows are encoded, scanned
// against every bucket in one blocked pass, and each window's
// candidates verified against the references.
//
//biohd:hotpath
func (l *Library) probeBlock(v *View, wins []Window, out []*BatchResult) {
	sc := l.getBlockScratch()
	defer l.putBlockScratch(sc)
	for j, wn := range wins {
		l.encodeInto(sc.hvs[j], sc.acc, wn.Seq, wn.Off)
	}
	dsts := sc.cands[:len(wins)]
	for j := range dsts {
		dsts[j] = dsts[j][:0]
	}
	l.probeBlockInto(v, dsts, sc.hvs[:len(wins)], sc)
	sn := hdcOf(v)
	tol := 0
	if l.params.Approx {
		tol = l.params.MutTolerance
	}
	for j, wn := range wins {
		r := out[j]
		r.Stats.Alignments++
		r.Stats.BucketProbes += sn.nBkts
		r.Stats.CandidateBuckets += len(dsts[j])
		r.Matches = l.verify(sn, r.Matches, wn.Seq, wn.Off, dsts[j], tol, &r.Stats)
	}
}

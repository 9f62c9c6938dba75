package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/genome"
	"repro/internal/hdc"
)

// Match is one verified occurrence of a query window in the references.
type Match struct {
	Ref      int // reference sequence index
	Off      int // offset of the matching window in the reference
	QueryOff int // offset of the aligned window within the query
	Distance int // substitution distance between query window and reference window
}

// Stats counts the work a search performed; experiment T2 compares these
// operation counts against the classical baselines, and the PIM mapper
// consumes them to derive in-memory latency and energy.
type Stats struct {
	Alignments       int // query window alignments encoded
	BucketProbes     int // query/bucket dot products (the PIM search kernel)
	CandidateBuckets int // buckets whose score crossed the threshold
	WindowsVerified  int // member windows checked during refinement
	BaseComparisons  int // nucleotide comparisons spent in verification
}

// Add accumulates another query's work into s — callers that combine
// independently produced results (the coalescing layer, benchmark
// harnesses) aggregate exactly as the multi-lookup paths do.
func (s *Stats) Add(o Stats) { s.add(o) }

func (s *Stats) add(o Stats) {
	s.Alignments += o.Alignments
	s.BucketProbes += o.BucketProbes
	s.CandidateBuckets += o.CandidateBuckets
	s.WindowsVerified += o.WindowsVerified
	s.BaseComparisons += o.BaseComparisons
}

// Candidate is an unverified bucket hit: the HDC similarity stage's raw
// output, before sequence-level refinement. Bucket is a global index
// across the snapshot's segments.
type Candidate struct {
	Bucket int
	Score  float64
	Excess float64 // score minus the model threshold
}

// Threshold returns the operating decision threshold: the calibrated
// threshold for frozen approximate libraries, or the a-priori model
// threshold for exact libraries (where the model is itself exact).
func (l *Library) Threshold() float64 {
	if sn := l.snap.Load(); sn != nil {
		return l.thresholdFor(sn)
	}
	return l.Model().DecisionThreshold(
		l.params.Alpha, l.params.Beta, maxInt(l.NumBuckets(), 1), l.params.MutTolerance)
}

// thresholdFor returns the decision threshold in force for one snapshot.
// Probes compute the threshold from the snapshot they scan — not from
// the library's latest one — so a probe racing a mutation stays
// internally consistent.
func (l *Library) thresholdFor(sn *snapshot) float64 {
	if l.params.Approx {
		return sn.cal.Tau
	}
	return l.modelWith(sn.maxOccupancy()).DecisionThreshold(
		l.params.Alpha, l.params.Beta, maxInt(sn.numBuckets(), 1), l.params.MutTolerance)
}

// BlockWidth is the query-block width of the blocked probe paths: up
// to this many query windows share one streaming pass over the arena,
// so each row's memory traffic is amortized across the block. Callers
// that assemble their own blocks (LookupBlock, the coalescing layer)
// size them against this constant.
const BlockWidth = bitvec.MaxMultiQueries

// probeBlock is the internal alias the probe paths were written
// against; it is the same width.
const probeBlock = BlockWidth

// diagKey identifies one alignment diagonal: matches of a reference
// whose reference offset minus query offset agree all support the same
// placement of the query in that reference.
type diagKey struct {
	ref  int
	diff int
}

// probeShardMin is the minimum number of buckets each worker must have
// before a segment's probe scan fans out across goroutines; below
// 2·probeShardMin buckets the scan stays serial (goroutine dispatch
// would cost more than the scan). A variable so tests can force the
// sharded path on small libraries.
var probeShardMin = 4096

// Probe scores an encoded query window against every bucket and returns
// the candidates above the model threshold. This is the pure HDC search
// stage — exactly the computation the PIM architecture executes in
// memory. The library must be frozen.
//
// The scan visits segments in order; within each segment, sealed
// libraries stream the flat arena with the fused XNOR-popcount kernel,
// converting the threshold τ into a maximum Hamming distance once per
// probe and abandoning each row as soon as that bound is exceeded, and
// large segments shard the scan across a bounded worker pool. All of it
// is exact: the candidates (order, scores, excesses) are identical to a
// serial full scan, and independent of how the buckets are cut into
// segments. Stats count the full scan — BucketProbes is the work the
// PIM hardware would do, not the words the software kernel happened to
// touch.
//
//biohd:hotpath
func (l *Library) Probe(hv *hdc.HV, stats *Stats) ([]Candidate, error) {
	sn := l.snap.Load()
	if sn == nil {
		return nil, fmt.Errorf("core: Probe before Freeze")
	}
	if !l.beginRead() {
		return nil, ErrClosed
	}
	defer l.endRead()
	if hv.Dim() != l.params.Dim {
		return nil, fmt.Errorf("core: query dimension %d != library %d", hv.Dim(), l.params.Dim)
	}
	//lint:ignore hotpath the result slice is caller-owned; the zero-alloc path is probeInto with pooled scratch
	out := l.probeInto(sn, make([]Candidate, 0, candidateHint), hv)
	if stats != nil {
		stats.BucketProbes += sn.numBuckets()
		stats.CandidateBuckets += len(out)
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// probeInto appends every bucket whose score reaches the threshold to
// dst and returns it, scanning the snapshot's segments in order.
// Callers must have validated frozenness and the query dimension.
func (l *Library) probeInto(sn *snapshot, dst []Candidate, hv *hdc.HV) []Candidate {
	l.ctr.bucketProbes.Add(int64(sn.numBuckets()))
	tau := l.thresholdFor(sn)
	// τ → Hamming bound: an integer dot passes score ≥ τ iff
	// dot ≥ ⌈τ⌉, and dot = D − 2·hamming, so a sealed row passes iff
	// hamming ≤ ⌊(D − ⌈τ⌉)/2⌋. A row whose partial distance already
	// exceeds that can never become a candidate. The arithmetic shift
	// is a floor division — Go's / truncates toward zero, which for a
	// negative numerator (τ > D) would admit distance 0.
	maxHam := (l.params.Dim - int(math.Ceil(tau))) >> 1
	for k, seg := range sn.segs {
		dst = l.probeSeg(seg, sn.offs[k], dst, hv, tau, maxHam)
	}
	return dst
}

// probeSeg scans one segment, sharding across a bounded worker pool
// when the segment is large enough. Contiguous bucket ranges, one per
// worker, are merged in shard order, so the result is byte-identical to
// a serial scan of the segment.
func (l *Library) probeSeg(seg *segment, gOff int, dst []Candidate, hv *hdc.HV, tau float64, maxHam int) []Candidate {
	n := seg.numBuckets()
	workers := runtime.GOMAXPROCS(0)
	if w := n / probeShardMin; workers > w {
		workers = w
	}
	if workers <= 1 {
		return seg.probeRange(dst, hv, tau, maxHam, 0, n, gOff, &l.params, &l.ctr)
	}
	per := (n + workers - 1) / workers
	//lint:ignore hotpath shard dispatch runs only on segments of ≥2·probeShardMin buckets; the allocation amortizes over the scan
	parts := make([][]Candidate, workers)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		lo := s * per
		hi := minInt(lo+per, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		//lint:ignore hotpath worker closure of the sharded scan; amortized like the dispatch slice above
		go func(s, lo, hi int) {
			defer wg.Done()
			parts[s] = seg.probeRange(nil, hv, tau, maxHam, lo, hi, gOff, &l.params, &l.ctr)
		}(s, lo, hi)
	}
	wg.Wait()
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// ProbeMulti probes a batch of encoded query windows in blocks of up
// to probeBlock queries: each sealed arena row is streamed once per
// block and XNOR-popcounted against every query in it, amortizing the
// memory traffic that dominates a large scan. The result is exactly
// len(hvs) independent probes — out[i] is identical to what
// Probe(hvs[i], ...) returns (same candidates, order, scores, excesses,
// nil on a miss) — and stats count the same modeled work: every query
// scans every bucket, whatever the software kernel skipped.
//
//biohd:hotpath
func (l *Library) ProbeMulti(hvs []*hdc.HV, stats *Stats) ([][]Candidate, error) {
	sn := l.snap.Load()
	if sn == nil {
		return nil, fmt.Errorf("core: ProbeMulti before Freeze")
	}
	if !l.beginRead() {
		return nil, ErrClosed
	}
	defer l.endRead()
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
	for base := 0; base < len(hvs); base += probeBlock {
		hi := minInt(base+probeBlock, len(hvs))
		// Each dst starts nil: probeBlockRange appends, so queries that
		// miss every bucket never allocate a candidate slice at all.
		dsts := out[base:hi]
		l.probeBlockInto(sn, dsts, hvs[base:hi], sc)
		for j := range dsts {
			total += len(dsts[j])
		}
	}
	if stats != nil {
		stats.BucketProbes += len(hvs) * sn.numBuckets()
		stats.CandidateBuckets += total
	}
	return out, nil
}

// probeBlockInto fills dsts[j] with the candidates of hvs[j] for one
// block of at most probeBlock queries, appending to whatever each dst
// already holds. Candidate content and order are identical to calling
// probeInto once per query; the only difference is that each sealed
// arena row is read once per block instead of once per query. Within
// each segment the bucket shards and their ordered merge mirror
// probeSeg exactly, so the tiling is [query block × bucket shard].
// Callers must have validated frozenness and query dimensions; sc
// supplies the kernel scratch (word views, bounds, distances).
func (l *Library) probeBlockInto(sn *snapshot, dsts [][]Candidate, hvs []*hdc.HV, sc *blockScratch) {
	nq := len(hvs)
	l.ctr.bucketProbes.Add(int64(nq) * int64(sn.numBuckets()))
	l.ctr.blockedProbes.Add(1)
	l.ctr.blockedWindows.Add(int64(nq))
	tau := l.thresholdFor(sn)
	maxHam := (l.params.Dim - int(math.Ceil(tau))) >> 1
	for k, seg := range sn.segs {
		l.probeBlockSeg(seg, sn.offs[k], dsts, hvs, sc, tau, maxHam)
	}
}

// probeBlockSeg scans one segment against a whole query block, sharding
// like probeSeg when the segment is large enough.
func (l *Library) probeBlockSeg(seg *segment, gOff int, dsts [][]Candidate, hvs []*hdc.HV, sc *blockScratch, tau float64, maxHam int) {
	nq := len(hvs)
	n := seg.numBuckets()
	workers := runtime.GOMAXPROCS(0)
	if w := n / probeShardMin; workers > w {
		workers = w
	}
	if workers <= 1 {
		seg.probeBlockRange(dsts, hvs, sc.qs[:0], tau, maxHam, 0, n, gOff, sc.bounds, sc.dist, &l.params, &l.ctr)
		return
	}
	per := (n + workers - 1) / workers
	//lint:ignore hotpath shard dispatch runs only on segments of ≥2·probeShardMin buckets; the allocation amortizes over the scan
	parts := make([][][]Candidate, workers)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		lo := s * per
		hi := minInt(lo+per, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		//lint:ignore hotpath worker closure of the sharded scan; amortized like the dispatch slice above
		go func(s, lo, hi int) {
			defer wg.Done()
			//lint:ignore hotpath per-worker result and bound/distance scratch, amortized over ≥probeShardMin buckets
			part := make([][]Candidate, nq)
			//lint:ignore hotpath per-worker result and bound/distance scratch, amortized over ≥probeShardMin buckets
			seg.probeBlockRange(part, hvs, nil, tau, maxHam, lo, hi, gOff, make([]int, nq), make([]int, nq), &l.params, &l.ctr)
			parts[s] = part
		}(s, lo, hi)
	}
	wg.Wait()
	for _, part := range parts {
		for j, p := range part {
			dsts[j] = append(dsts[j], p...)
		}
	}
}

// verify refines candidates into matches by direct comparison of the
// query window against each member window of each candidate bucket,
// accepting distance ≤ tol. Windows whose reference has been removed
// (tombstones) are skipped — their contribution to the bucket vector
// lingers until Compact, but they can never match. Matches are appended
// to out, which is returned (append-style, so Lookup accumulates across
// alignments without an intermediate slice).
func (l *Library) verify(sn *snapshot, out []Match, q *genome.Sequence, qOff int, cands []Candidate, tol int, stats *Stats) []Match {
	w := l.params.Window
	for _, c := range cands {
		for _, wr := range sn.windows(c.Bucket) {
			ref := sn.refs[wr.Ref].Seq
			if ref == nil {
				continue // tombstoned
			}
			dist := 0
			for i := 0; i < w; i++ {
				if ref.At(int(wr.Off)+i) != q.At(qOff+i) {
					dist++
					if dist > tol {
						break
					}
				}
			}
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

// Lookup searches for a window-length pattern in the library and returns
// the verified matches. The pattern must be at least Window bases long;
// when the library stride exceeds 1, the first min(stride, len−Window+1)
// alignments of the pattern are tried so that one of them can line up
// with a stride-aligned reference window (supply a pattern of length ≥
// Window+Stride−1 for full sensitivity).
//
// Exact libraries accept only exact occurrences; approximate libraries
// accept occurrences within MutTolerance substitutions.
//
//biohd:hotpath
func (l *Library) Lookup(pattern *genome.Sequence) ([]Match, Stats, error) {
	var stats Stats
	w := l.params.Window
	if pattern == nil || pattern.Len() < w {
		return nil, stats, fmt.Errorf("core: pattern shorter than window %d", w)
	}
	sn := l.snap.Load()
	if sn == nil {
		return nil, stats, fmt.Errorf("core: Lookup before Freeze")
	}
	if !l.beginRead() {
		return nil, stats, ErrClosed
	}
	defer l.endRead()
	tol := 0
	if l.params.Approx {
		tol = l.params.MutTolerance
	}
	alignments := minInt(l.params.Stride, pattern.Len()-w+1)
	sc := l.getScratch()
	defer l.putScratch(sc)
	var matches []Match
	for a := 0; a < alignments; a++ {
		if l.params.Approx {
			l.enc.EncodeWindowApproxInto(sc.hv, sc.acc, pattern, a)
		} else {
			l.enc.EncodeWindowExactInto(sc.hv, pattern, a)
		}
		stats.Alignments++
		sc.cands = l.probeInto(sn, sc.cands[:0], sc.hv)
		stats.BucketProbes += sn.numBuckets()
		stats.CandidateBuckets += len(sc.cands)
		matches = l.verify(sn, matches, pattern, a, sc.cands, tol, &stats)
	}
	sortMatches(matches)
	return matches, stats, nil
}

// sortMatches orders matches by (Ref, Off) — the order Lookup
// documents — with an insertion sort: match lists are small (verified
// hits of one pattern), and unlike sort.Slice the sort allocates
// nothing, keeping the lookup paths statically allocation-free.
func sortMatches(matches []Match) {
	for i := 1; i < len(matches); i++ {
		m := matches[i]
		j := i - 1
		for j >= 0 && (matches[j].Ref > m.Ref ||
			(matches[j].Ref == m.Ref && matches[j].Off > m.Off)) {
			matches[j+1] = matches[j]
			j--
		}
		matches[j+1] = m
	}
}

// Contains reports whether the pattern occurs in the references (within
// MutTolerance for approximate libraries) — the pure membership query.
func (l *Library) Contains(pattern *genome.Sequence) (bool, Stats, error) {
	matches, stats, err := l.Lookup(pattern)
	return len(matches) > 0, stats, err
}

// RefMatch aggregates LookupLong evidence for one reference.
type RefMatch struct {
	Ref      int     // reference index
	Votes    int     // query windows supporting this reference on the best diagonal
	Windows  int     // query windows searched
	Offset   int     // implied alignment offset of the query in the reference
	Fraction float64 // Votes / Windows
}

// LookupLong maps a long query (e.g. a sequencing read or a gene) against
// the references: the query is cut into non-overlapping windows, the
// windows are probed in blocks (each sealed arena row streams once per
// block of up to probeBlock windows), and per-reference votes are
// accumulated along alignment diagonals (matches whose reference offset
// minus query offset agree). References are returned in decreasing vote
// order, filtered to vote fraction ≥ minFrac. Matches, votes, and
// stats are identical to looking each window up individually.
//
//biohd:hotpath
func (l *Library) LookupLong(query *genome.Sequence, minFrac float64) ([]RefMatch, Stats, error) {
	var stats Stats
	w := l.params.Window
	if query == nil || query.Len() < w {
		return nil, stats, fmt.Errorf("core: query shorter than window %d", w)
	}
	sn := l.snap.Load()
	if sn == nil {
		return nil, stats, fmt.Errorf("core: Lookup before Freeze")
	}
	if !l.beginRead() {
		return nil, stats, ErrClosed
	}
	defer l.endRead()
	tol := 0
	if l.params.Approx {
		tol = l.params.MutTolerance
	}
	sc := l.getBlockScratch()
	defer l.putBlockScratch(sc)
	clear(sc.votes)
	nWindows := 0
	nBkts := sn.numBuckets()
	var offs [probeBlock]int
	for base := 0; base+w <= query.Len(); {
		// Encode the next block of non-overlapping windows straight from
		// the query (window i of the read starts at absolute offset i·w,
		// so no sub-slices are materialized).
		nq := 0
		for nq < probeBlock && base+w <= query.Len() {
			if l.params.Approx {
				l.enc.EncodeWindowApproxInto(sc.hvs[nq], sc.acc, query, base)
			} else {
				l.enc.EncodeWindowExactInto(sc.hvs[nq], query, base)
			}
			offs[nq] = base
			nq++
			base += w
		}
		dsts := sc.cands[:nq]
		for j := range dsts {
			dsts[j] = dsts[j][:0]
		}
		l.probeBlockInto(sn, dsts, sc.hvs[:nq], sc)
		stats.Alignments += nq
		stats.BucketProbes += nq * nBkts
		for j := 0; j < nq; j++ {
			stats.CandidateBuckets += len(dsts[j])
			sc.matches = l.verify(sn, sc.matches[:0], query, offs[j], dsts[j], tol, &stats)
			nWindows++
			clear(sc.seen) // one vote per diagonal per query window
			for _, m := range sc.matches {
				d := diagKey{ref: m.Ref, diff: m.Off - m.QueryOff}
				if !sc.seen[d] {
					sc.seen[d] = true
					sc.votes[d]++
				}
			}
		}
	}
	clear(sc.best)
	out := rankVotes(sc.votes, sc.best, nWindows, minFrac)
	return out, stats, nil
}

// rankVotes turns accumulated diagonal votes into the ranked RefMatch
// list: the winning diagonal per reference, filtered to vote fraction
// ≥ minFrac, ordered by sortRefMatches. Equal-vote ties are broken by
// the smaller diagonal so the reported Offset does not depend on map
// iteration order. best must arrive empty; it is caller-owned scratch.
func rankVotes(votes map[diagKey]int, best map[int]diagKey, nWindows int, minFrac float64) []RefMatch {
	//lint:ignore hotpath diagonal-vote aggregation is the per-call epilogue; the result is order-independent by the tie-break below
	for d, v := range votes {
		cur, ok := best[d.ref]
		switch {
		case !ok || v > votes[cur]:
			best[d.ref] = d
		case v == votes[cur] && d.diff < cur.diff:
			best[d.ref] = d
		}
	}
	var out []RefMatch
	//lint:ignore hotpath per-call epilogue over the winning diagonals; the final sort fixes the order
	for ref, d := range best {
		v := votes[d]
		frac := float64(v) / float64(nWindows)
		if frac >= minFrac {
			out = append(out, RefMatch{
				Ref: ref, Votes: v, Windows: nWindows, Offset: d.diff, Fraction: frac,
			})
		}
	}
	sortRefMatches(out)
	return out
}

// RankWindows runs LookupLong's diagonal-voting epilogue over window
// match lists produced elsewhere: wins[i] holds the matches of the
// query window starting at absolute query offset offs[i] (as returned
// by Lookup on the window sub-slice, so QueryOff is window-relative).
// Votes, tie-breaks, filtering, and ordering are identical to
// LookupLong over the same windows — callers that fan window lookups
// out (e.g. through the coalescing layer) rank them equivalently.
func RankWindows(wins [][]Match, offs []int, minFrac float64) []RefMatch {
	votes := make(map[diagKey]int)
	seen := make(map[diagKey]bool)
	for i, ms := range wins {
		clear(seen) // one vote per diagonal per query window
		for _, m := range ms {
			d := diagKey{ref: m.Ref, diff: m.Off - (offs[i] + m.QueryOff)}
			if !seen[d] {
				seen[d] = true
				votes[d]++
			}
		}
	}
	return rankVotes(votes, make(map[int]diagKey), len(wins), minFrac)
}

// sortRefMatches orders ranked references by decreasing Votes, ties by
// increasing Ref — allocation-free like sortMatches; the list is at
// most one entry per matched reference.
func sortRefMatches(out []RefMatch) {
	for i := 1; i < len(out); i++ {
		m := out[i]
		j := i - 1
		for j >= 0 && (out[j].Votes < m.Votes ||
			(out[j].Votes == m.Votes && out[j].Ref > m.Ref)) {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = m
	}
}

// ErrNoSupport is returned (wrapped) by Classify when the query is
// valid but no reference reaches the requested window-vote support —
// a not-found outcome, distinct from invalid-input errors such as a
// query shorter than the window. Test with errors.Is.
var ErrNoSupport = errors.New("core: no reference reaches support")

// Classify returns the single best-supported reference for a query, or
// an error if no reference reaches minFrac support. It is the variant-
// classification entry point used by the COVID-19 case study.
func (l *Library) Classify(query *genome.Sequence, minFrac float64) (RefMatch, Stats, error) {
	ranked, stats, err := l.LookupLong(query, minFrac)
	if err != nil {
		return RefMatch{}, stats, err
	}
	if len(ranked) == 0 {
		return RefMatch{}, stats, fmt.Errorf("%w %v", ErrNoSupport, minFrac)
	}
	return ranked[0], stats, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

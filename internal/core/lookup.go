package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/genome"
)

// The derived probes: every search an index offers, written once over
// the kernel's read primitive (Kernel.Probe). Each pins one view for its
// whole duration, so an answer is internally consistent even if
// mutations land while it runs.

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
func (s *Stats) Add(o Stats) {
	s.Alignments += o.Alignments
	s.BucketProbes += o.BucketProbes
	s.CandidateBuckets += o.CandidateBuckets
	s.WindowsVerified += o.WindowsVerified
	s.BaseComparisons += o.BaseComparisons
}

// BatchResult is the outcome of one query in a batch or block lookup.
type BatchResult struct {
	Matches []Match
	Stats   Stats
	Err     error
}

// BlockWidth is the query-block width of the blocked probe paths: up
// to this many query windows share one call of the read primitive (for
// the HDC kernel, one streaming pass over the arena). Callers that
// assemble their own blocks (LookupBlock, the coalescing layer) size
// them against this constant.
const BlockWidth = bitvec.MaxMultiQueries

// diagKey identifies one alignment diagonal: matches of a reference
// whose reference offset minus query offset agree all support the same
// placement of the query in that reference.
type diagKey struct {
	ref  int
	diff int
}

// probeScratch is the engine's pooled per-operation state: the window
// block handed to the kernel and LookupLong's diagonal-voting maps,
// reused so steady-state probes do not allocate. The arrays live here
// rather than on the stack because the kernel is called through a
// function value, which would make them escape.
type probeScratch struct {
	wins [BlockWidth]Window
	out  [BlockWidth]*BatchResult
	res  [BlockWidth]BatchResult // LookupLong's per-window accumulators, match buffers reused
	pat  [2]*genome.Sequence     // Lookup's one-pattern block, LookupBothStrands' two
	one  [1]BatchResult          // Lookup's result

	seen  map[diagKey]bool // per-window diagonal dedup
	votes map[diagKey]int  // per-call diagonal votes
	best  map[int]diagKey  // per-call winning diagonal per reference
}

// getScratch returns pooled probe state, constructing it on a pool miss.
//
//biohd:coldstart pool-miss construction; steady state reuses pooled scratch
func (e *Engine) getScratch() *probeScratch {
	if sc, ok := e.pool.Get().(*probeScratch); ok {
		return sc
	}
	return &probeScratch{
		seen:  make(map[diagKey]bool),
		votes: make(map[diagKey]int),
		best:  make(map[int]diagKey),
	}
}

// putScratch drops the scratch's references to caller data and pools it.
func (e *Engine) putScratch(sc *probeScratch) {
	clear(sc.wins[:])
	clear(sc.out[:])
	clear(sc.pat[:])
	e.pool.Put(sc)
}

// probe runs the read primitive over the first n windows of sc. blocked
// tallies the call as one multi-query block (the coalescer's and the
// batch paths' occupancy figure); a lone Lookup is not one.
func (e *Engine) probe(v *View, sc *probeScratch, n int, blocked bool) {
	if blocked {
		e.ctr.blockedProbes.Add(1)
		e.ctr.blockedWindows.Add(int64(n))
	}
	e.k.Probe(v, sc.wins[:n], sc.out[:n])
}

// Lookup searches for a window-length pattern and returns the verified
// matches ordered by (Ref, Off). The pattern must be at least Window
// bases long; when the stride exceeds 1, the first
// min(stride, len−Window+1) alignments of the pattern are tried so that
// one of them can line up with a stride-aligned reference window
// (supply a pattern of length ≥ Window+Stride−1 for full sensitivity).
// It is the one-pattern case of the block pipeline.
//
//biohd:hotpath
func (e *Engine) Lookup(pattern *genome.Sequence) ([]Match, Stats, error) {
	if pattern == nil || pattern.Len() < e.k.Window {
		return nil, Stats{}, e.errShort
	}
	v, err := e.Pin("Lookup")
	if err != nil {
		return nil, Stats{}, err
	}
	defer e.Unpin()
	sc := e.getScratch()
	defer e.putScratch(sc)
	sc.pat[0] = pattern
	e.lookupBlock(v, sc.pat[:1], sc.one[:], sc, false)
	r := sc.one[0]
	sc.one[0] = BatchResult{} // the matches are the caller's now
	return r.Matches, r.Stats, nil
}

// lookupBlock runs the Lookup pipeline for one block of at most
// BlockWidth patterns, sharing the kernel's passes across the block:
// wave a probes the a-th alignment of every pattern that still offers
// one. Verification order within a pattern is alignment-major, so each
// result is what an individual Lookup returns. results must arrive
// zeroed (matches are appended).
//
//biohd:hotpath
func (e *Engine) lookupBlock(v *View, patterns []*genome.Sequence, results []BatchResult, sc *probeScratch, blocked bool) {
	w := e.k.Window
	var aligns [BlockWidth]int // alignments per pattern; 0 skips invalid ones
	maxAlign := 0
	for i, p := range patterns {
		if p == nil || p.Len() < w {
			results[i] = BatchResult{Err: e.errShort}
			continue
		}
		aligns[i] = minInt(e.k.Stride, p.Len()-w+1)
		if aligns[i] > maxAlign {
			maxAlign = aligns[i]
		}
	}
	for a := 0; a < maxAlign; a++ {
		n := 0
		for i, p := range patterns {
			if a < aligns[i] {
				sc.wins[n] = Window{Seq: p, Off: a}
				sc.out[n] = &results[i]
				n++
			}
		}
		e.probe(v, sc, n, blocked)
	}
	for i := range results {
		sortMatches(results[i].Matches)
	}
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

// LookupBlock runs the Lookup pipeline for one caller-assembled block
// of at most BlockWidth patterns. results must be at least as long as
// patterns; the first len(patterns) slots are overwritten with each
// pattern's outcome, per-pattern identical (matches, stats, error) to
// an individual Lookup call. This is the block executor of the
// cross-request coalescing layer, which packs queued single-query
// probes from concurrent requests into one block.
//
//biohd:hotpath
func (e *Engine) LookupBlock(patterns []*genome.Sequence, results []BatchResult) error {
	if len(patterns) == 0 {
		return nil
	}
	if len(patterns) > BlockWidth {
		return fmt.Errorf("core: LookupBlock of %d patterns exceeds BlockWidth %d", len(patterns), BlockWidth)
	}
	if len(results) < len(patterns) {
		return fmt.Errorf("core: LookupBlock results slice shorter than patterns")
	}
	v, err := e.Pin("LookupBlock")
	if err != nil {
		return err
	}
	defer e.Unpin()
	results = results[:len(patterns)]
	clear(results) // reused slots must not leak stale matches into this block
	sc := e.getScratch()
	e.lookupBlock(v, patterns, results, sc, true)
	e.putScratch(sc)
	return nil
}

// LookupBatchContext runs Lookup for every pattern against a single
// view, with cancellation: a block claimed after ctx is canceled is
// marked with ctx's error instead of being searched. The call still
// returns the partial results — every slot is filled, either with its
// lookup outcome or with Err set to ctx.Err() — plus the aggregate
// Stats of the lookups that did run, and ctx's error so callers can
// tell a complete batch (nil) from a truncated one. Work already in
// flight when ctx fires runs to completion.
//
// The pool sizes itself: min(GOMAXPROCS, blocks) workers, the calling
// goroutine one of them, claim index blocks of up to BlockWidth
// patterns from one cursor and run each through the block pipeline. A
// small batch shrinks the block so every worker gets one. Per pattern,
// the matches, stats, and errors are identical to an individual Lookup
// call.
func (e *Engine) LookupBatchContext(ctx context.Context, patterns []*genome.Sequence) ([]BatchResult, Stats, error) {
	// One read section brackets the whole batch — Close drains after
	// every worker below has finished scanning.
	v, err := e.Pin("LookupBatch")
	if err != nil {
		return nil, Stats{}, err
	}
	defer e.Unpin()
	n := len(patterns)
	workers := minInt(runtime.GOMAXPROCS(0), maxInt(n, 1))
	blk := minInt(BlockWidth, maxInt((n+workers-1)/workers, 1))
	workers = minInt(workers, maxInt((n+blk-1)/blk, 1))
	results := make([]BatchResult, n)
	var cursor atomic.Int64
	work := func() {
		sc := e.getScratch()
		defer e.putScratch(sc)
		for {
			hi := int(cursor.Add(int64(blk)))
			lo := hi - blk
			if lo >= n {
				return
			}
			hi = minInt(hi, n)
			if err := ctx.Err(); err != nil {
				for i := lo; i < hi; i++ {
					results[i] = BatchResult{Err: err}
				}
				continue
			}
			e.lookupBlock(v, patterns[lo:hi], results[lo:hi], sc, true)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	var agg Stats
	for _, r := range results {
		agg.Add(r.Stats)
	}
	err = ctx.Err()
	if err != nil {
		e.ctr.batchCancellations.Add(1)
	}
	return results, agg, err
}

// Strand identifies which DNA strand a match was found on.
type Strand uint8

// Strand values.
const (
	Forward Strand = iota
	Reverse
)

// String names the strand.
func (s Strand) String() string {
	if s == Reverse {
		return "-"
	}
	return "+"
}

// StrandedMatch is a Match annotated with the strand of the query that
// produced it.
type StrandedMatch struct {
	Match
	Strand Strand
}

// LookupBothStrands searches the pattern and its reverse complement —
// DNA fragments arrive with unknown orientation, so genomic search must
// check both strands. Matches report which orientation hit, forward
// ones first; offsets are always in reference coordinates. The two
// orientations are one two-pattern block, so they share the kernel's
// passes; each strand's matches and stats are those of its own Lookup.
func (e *Engine) LookupBothStrands(pattern *genome.Sequence) ([]StrandedMatch, Stats, error) {
	if pattern == nil || pattern.Len() < e.k.Window {
		return nil, Stats{}, e.errShort
	}
	v, err := e.Pin("Lookup")
	if err != nil {
		return nil, Stats{}, err
	}
	defer e.Unpin()
	sc := e.getScratch()
	defer e.putScratch(sc)
	sc.pat[0], sc.pat[1] = pattern, pattern.ReverseComplement()
	res := sc.res[:2] // the matches are copied out, so the buffers are reused
	for i := range res {
		res[i] = BatchResult{Matches: res[i].Matches[:0]}
	}
	e.lookupBlock(v, sc.pat[:], res, sc, true)
	out := make([]StrandedMatch, 0, len(res[0].Matches)+len(res[1].Matches))
	for i, strand := range [2]Strand{Forward, Reverse} {
		for _, m := range res[i].Matches {
			out = append(out, StrandedMatch{Match: m, Strand: strand})
		}
	}
	stats := res[0].Stats
	stats.Add(res[1].Stats)
	return out, stats, nil
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
// windows are probed in blocks of up to BlockWidth, and per-reference
// votes are accumulated along alignment diagonals (matches whose
// reference offset minus query offset agree). References are returned
// in decreasing vote order, filtered to vote fraction ≥ minFrac.
// Matches, votes, and stats are identical to looking each window up
// individually.
//
//biohd:hotpath
func (e *Engine) LookupLong(query *genome.Sequence, minFrac float64) ([]RefMatch, Stats, error) {
	var stats Stats
	w := e.k.Window
	if query == nil || query.Len() < w {
		return nil, stats, fmt.Errorf("core: query shorter than window %d", w)
	}
	v, err := e.Pin("Lookup")
	if err != nil {
		return nil, stats, err
	}
	defer e.Unpin()
	sc := e.getScratch()
	defer e.putScratch(sc)
	clear(sc.votes)
	nWindows := 0
	for base := 0; base+w <= query.Len(); {
		// Window i of the read starts at absolute offset i·w, so no
		// sub-slices are materialized.
		n := 0
		for ; n < BlockWidth && base+w <= query.Len(); n++ {
			r := &sc.res[n]
			r.Matches, r.Stats = r.Matches[:0], Stats{}
			sc.wins[n], sc.out[n] = Window{Seq: query, Off: base}, r
			base += w
		}
		e.probe(v, sc, n, true)
		for j := 0; j < n; j++ {
			stats.Add(sc.res[j].Stats)
			nWindows++
			clear(sc.seen) // one vote per diagonal per query window
			for _, m := range sc.res[j].Matches {
				d := diagKey{ref: m.Ref, diff: m.Off - m.QueryOff}
				if !sc.seen[d] {
					sc.seen[d] = true
					sc.votes[d]++
				}
			}
		}
	}
	clear(sc.best)
	return rankVotes(sc.votes, sc.best, nWindows, minFrac), stats, nil
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
func (e *Engine) Classify(query *genome.Sequence, minFrac float64) (RefMatch, Stats, error) {
	ranked, stats, err := e.LookupLong(query, minFrac)
	if err != nil {
		return RefMatch{}, stats, err
	}
	if len(ranked) == 0 {
		return RefMatch{}, stats, fmt.Errorf("%w %v", ErrNoSupport, minFrac)
	}
	return ranked[0], stats, nil
}

// ClassifyBothStrands classifies a read whose strand is unknown: both
// orientations are mapped and the better-supported one wins. The
// returned strand says which orientation of the read aligned; Offset is
// the alignment offset of that orientation in the reference.
func (e *Engine) ClassifyBothStrands(read *genome.Sequence, minFrac float64) (RefMatch, Strand, Stats, error) {
	fwd, stats, errF := e.Classify(read, minFrac)
	rev, rstats, errR := e.Classify(read.ReverseComplement(), minFrac)
	stats.Add(rstats)
	switch {
	case errF == nil && (errR != nil || fwd.Votes >= rev.Votes):
		return fwd, Forward, stats, nil
	case errR == nil:
		return rev, Reverse, stats, nil
	default:
		return RefMatch{}, Forward, stats, errF
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/genome"
)

// The derived probes: every search an index offers, written once over
// the kernel's read primitive (Kernel.Probe). Search is the entry point;
// it pins one view for the whole query, so an answer is internally
// consistent even if mutations land while it runs.

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
	BucketProbes     int // query/bucket dot products: the buckets a probe scores, what the PIM activates
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
// block handed to the kernel and the long query's diagonal-voting maps,
// reused so steady-state probes do not allocate. The arrays live here
// rather than on the stack because the kernel is called through a
// function value, which would make them escape.
type probeScratch struct {
	wins [BlockWidth]Window
	out  [BlockWidth]*BatchResult
	res  [BlockWidth]BatchResult // a long query's per-window accumulators, match buffers reused
	pat  [2]*genome.Sequence     // Lookup's one-pattern block, a both-strand search's two
	one  [1]BatchResult          // Lookup's result
	ans  Answer                  // Classify's

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

// probe runs the read primitive over the first n windows of sc.
func (e *Engine) probe(v *View, sc *probeScratch, n int, blocked bool) {
	e.countProbe(v, n, blocked)
	e.k.Probe(v, sc.wins[:n], sc.out[:n])
}

// countProbe books every probe call, over windows query windows of v.
// blocked tallies it as one multi-query block (the coalescer's and the
// batch paths' occupancy figure); a lone Lookup is not one. Each window
// scans each segment once, on the mapped or the heap tier; a zero delta
// is skipped.
//
//biohd:hotpath
func (e *Engine) countProbe(v *View, windows int, blocked bool) {
	n := int64(windows)
	if blocked {
		e.ctr.blockedProbes.Add(1)
		e.ctr.blockedWindows.Add(n)
	}
	if v.mapped != 0 {
		e.ctr.mappedScans.Add(n * int64(v.mapped))
	}
	if heap := len(v.Segs) - v.mapped; heap != 0 {
		e.ctr.heapScans.Add(n * int64(heap))
	}
}

// Query is one search, in one of four shapes (any other is an error): a
// lookup of one or more window patterns; one pattern with Both, also
// searched as its reverse complement; one long query (a read, a gene)
// with Long, whose windows vote per reference along alignment
// diagonals; one read with Long and Both, answered by the orientation
// whose best reference has more votes (forward on a tie).
type Query struct {
	Patterns []*genome.Sequence
	Both     bool    // also search each pattern's reverse complement
	Long     bool    // rank references by window votes
	MinFrac  float64 // Long: the vote fraction a reference must reach
}

// Answer is a Search's outcome, caller-owned and reusable: Search
// resets it and reuses its slices, match lists included, so a forward
// query allocates nothing on a miss (Both builds a reverse complement).
type Answer struct {
	// Results holds one entry per pattern, then one per reverse
	// complement with Both: a lookup's matches ordered by (Ref, Off),
	// stats and error (a pattern shorter than the window is refused
	// here); a Long query's stats.
	Results []BatchResult
	Ranked  []RefMatch // Long: references by decreasing votes
	Strand  Strand     // Long: the orientation Ranked belongs to
	Stats   Stats      // the whole query's work
	minFrac float64    // for Best's error
}

// Best is a Long query's classification: its top-ranked reference, or
// ErrNoSupport when none reached MinFrac.
func (a *Answer) Best() (RefMatch, error) {
	if len(a.Ranked) == 0 {
		return RefMatch{}, fmt.Errorf("%w %v", ErrNoSupport, a.minFrac)
	}
	return a.Ranked[0], nil
}

// Search answers q into a from one pinned view, so an answer belongs to
// one generation even while mutations land. Per pattern it answers as
// Lookup; a Long query ranks as looking each window up alone would.
// Every backend answers alike — the conformance suite holds HDC exact
// and approximate and cobs, heap and mapped, to a naive scan on random
// references of at most 320 bases; on larger libraries exact HDC misses
// an occurrence with probability β. Its Stats count the buckets each
// window's probe scores: in an exact HDC library, only those its
// content routes it to (DESIGN §8.6). It fails for a shape Query does not
// list, a Long query shorter than the window, an index not frozen or
// closed, and — returning ctx.Err() itself — a lookup ctx cut short
// before its last block began: only a lookup observes ctx, between its
// blocks of BlockWidth patterns, which run in pattern order on the
// caller's goroutine.
func (e *Engine) Search(ctx context.Context, q Query, a *Answer) error {
	pats, n := q.Patterns, len(q.Patterns)
	entries := n
	if q.Both {
		entries *= 2
	}
	a.Results = slices.Grow(a.Results[:0], entries)[:entries] // reset, keeping the match buffers
	for i := range a.Results {
		a.Results[i] = BatchResult{Matches: a.Results[i].Matches[:0]}
	}
	a.Ranked, a.Strand, a.Stats, a.minFrac = a.Ranked[:0], Forward, Stats{}, q.MinFrac
	if n == 0 || (n > 1 && (q.Both || q.Long)) {
		return fmt.Errorf("core: unsupported query: %d patterns, both %v, long %v", n, q.Both, q.Long)
	}
	if q.Long && (pats[0] == nil || pats[0].Len() < e.k.Window) {
		return fmt.Errorf("core: query shorter than window %d", e.k.Window)
	}
	v, err := e.Pin("Lookup")
	if err != nil {
		return err
	}
	defer e.Unpin()
	sc := e.getScratch()
	defer e.putScratch(sc)
	if q.Both {
		sc.pat[0], sc.pat[1] = pats[0], nil
		if pats[0] != nil {
			sc.pat[1] = pats[0].ReverseComplement()
		}
		pats = sc.pat[:]
	}
	switch {
	case q.Long: // rank each orientation; keep the better-supported one's ranking
		a.Ranked, a.Results[0].Stats = e.rankLong(v, sc, pats[0], q.MinFrac, a.Ranked)
		if nf := len(a.Ranked); q.Both {
			a.Ranked, a.Results[1].Stats = e.rankLong(v, sc, pats[1], q.MinFrac, a.Ranked)
			if nf < len(a.Ranked) && (nf == 0 || a.Ranked[nf].Votes > a.Ranked[0].Votes) {
				a.Ranked, a.Strand = a.Ranked[:copy(a.Ranked, a.Ranked[nf:])], Reverse
			} else {
				a.Ranked = a.Ranked[:nf]
			}
		}
	case q.Both: // the two orientations share the kernel's passes as one block
		e.lookupBlock(v, pats, a.Results, sc, true)
	default:
		err = e.lookupBatch(ctx, v, pats, a.Results, sc)
	}
	for i := range a.Results {
		a.Stats.Add(a.Results[i].Stats)
	}
	return err
}

// Lookup searches for a window-length pattern and returns the verified
// matches ordered by (Ref, Off). The pattern must be at least Window
// bases long; when the stride exceeds 1, the first
// min(stride, len−Window+1) alignments of the pattern are tried so that
// one of them can line up with a stride-aligned reference window
// (supply a pattern of length ≥ Window+Stride−1 for full sensitivity).
// It stays beside Search for the benchmark harness and, unlike a
// one-pattern Search, is not counted as a blocked probe.
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
		aligns[i] = min(e.k.Stride, p.Len()-w+1)
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

// lookupBatch is Search's lookup: blocks of BlockWidth patterns, in
// pattern order, on the caller's goroutine. Before each block it checks
// ctx; once ctx is done, that block and every later one get its error in
// their entries and the batch returns it. A ctx that dies during the last
// block refuses nothing, so the batch returns nil.
//
//biohd:hotpath
func (e *Engine) lookupBatch(ctx context.Context, v *View, patterns []*genome.Sequence, results []BatchResult, sc *probeScratch) error {
	for lo := 0; lo < len(patterns); lo += BlockWidth {
		if err := ctx.Err(); err != nil {
			for i := lo; i < len(patterns); i++ {
				results[i] = BatchResult{Err: err}
			}
			e.ctr.batchCancellations.Add(1)
			return err
		}
		hi := min(lo+BlockWidth, len(patterns))
		e.lookupBlock(v, patterns[lo:hi], results[lo:hi], sc, true)
	}
	return nil
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

// RefMatch aggregates a long query's evidence for one reference.
type RefMatch struct {
	Ref      int     // reference index
	Votes    int     // query windows supporting this reference on the best diagonal
	Windows  int     // query windows searched
	Offset   int     // implied alignment offset of the query in the reference
	Fraction float64 // Votes / Windows
}

// rankLong maps a query of at least a window against v: its
// non-overlapping windows are probed in blocks of up to BlockWidth, and
// votes accumulate along alignment diagonals (matches whose reference
// offset minus query offset agree). The references reaching vote
// fraction minFrac are appended to dst in decreasing vote order.
//
//biohd:hotpath
func (e *Engine) rankLong(v *View, sc *probeScratch, query *genome.Sequence, minFrac float64, dst []RefMatch) ([]RefMatch, Stats) {
	var stats Stats
	w := e.k.Window
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
	return rankVotes(sc.votes, sc.best, nWindows, minFrac, dst), stats
}

// rankVotes appends the ranked RefMatch list of accumulated diagonal
// votes to dst: the winning diagonal per reference, filtered to vote
// fraction ≥ minFrac, ordered by sortRefMatches. Equal-vote ties are
// broken by the smaller diagonal so the reported Offset does not depend
// on map iteration order. best must arrive empty; it is caller-owned
// scratch.
func rankVotes(votes map[diagKey]int, best map[int]diagKey, nWindows int, minFrac float64, dst []RefMatch) []RefMatch {
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
	from := len(dst)
	//lint:ignore hotpath per-call epilogue over the winning diagonals; the final sort fixes the order
	for ref, d := range best {
		v := votes[d]
		frac := float64(v) / float64(nWindows)
		if frac >= minFrac {
			dst = append(dst, RefMatch{
				Ref: ref, Votes: v, Windows: nWindows, Offset: d.diff, Fraction: frac,
			})
		}
	}
	sortRefMatches(dst, from)
	return dst
}

// sortRefMatches orders the ranked references out[from:] by decreasing
// Votes, ties by increasing Ref — allocation-free like sortMatches; the
// list is at most one entry per matched reference.
func sortRefMatches(out []RefMatch, from int) {
	for i := from + 1; i < len(out); i++ {
		m := out[i]
		j := i - 1
		for j >= from && (out[j].Votes < m.Votes ||
			(out[j].Votes == m.Votes && out[j].Ref > m.Ref)) {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = m
	}
}

// ErrNoSupport is returned (wrapped) by Answer.Best and Classify when
// the query is valid but no reference reaches the requested window-vote
// support — a not-found outcome, distinct from invalid-input errors
// such as a query shorter than the window. Test with errors.Is.
var ErrNoSupport = errors.New("core: no reference reaches support")

// Classify is a forward Long Search's Best, kept beside Search for the
// benchmark harness; its Query and Answer live in the pooled scratch.
func (e *Engine) Classify(query *genome.Sequence, minFrac float64) (RefMatch, Stats, error) {
	sc := e.getScratch()
	defer e.putScratch(sc)
	sc.pat[0] = query
	a := &sc.ans
	if err := e.Search(context.Background(), Query{Patterns: sc.pat[:1], Long: true, MinFrac: minFrac}, a); err != nil {
		return RefMatch{}, a.Stats, err
	}
	best, err := a.Best()
	return best, a.Stats, err
}

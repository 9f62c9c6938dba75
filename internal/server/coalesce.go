package server

// Coalesced routing: the handlers call these helpers instead of the
// library directly, so single-query traffic from concurrent requests
// shares probe blocks when coalescing is enabled (s.coal != nil) and
// keeps the exact direct-path behavior — results, errors, and
// response bytes — when it is not. The coalescer runs nothing of its
// own: a helper's lookups execute on the request goroutine that called
// it, or on that of a concurrent request that took them into its block.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/genome"
)

// lookup routes one pattern lookup through the coalescer when
// enabled; otherwise it is exactly Library.Lookup.
func (s *Server) lookup(ctx context.Context, pat *genome.Sequence) ([]core.Match, core.Stats, error) {
	if s.coal != nil {
		return s.coal.Lookup(ctx, pat)
	}
	return s.lib.Lookup(pat)
}

// lookupBothStrands is the coalesced LookupBothStrands: both
// orientations are submitted together (one caller's lookups are never
// split across blocks), then combined exactly as the direct path does —
// a forward error returns before any reverse results are reported, and
// matches list forward hits before reverse ones.
func (s *Server) lookupBothStrands(ctx context.Context, pat *genome.Sequence) ([]core.StrandedMatch, core.Stats, error) {
	if s.coal == nil {
		return s.lib.LookupBothStrands(pat)
	}
	pats := [2]*genome.Sequence{pat, pat.ReverseComplement()}
	var res [2]core.BatchResult
	s.coal.LookupEach(ctx, pats[:], res[:])
	stats := res[0].Stats
	if res[0].Err != nil {
		return nil, stats, res[0].Err
	}
	out := make([]core.StrandedMatch, 0, len(res[0].Matches)+len(res[1].Matches))
	for _, m := range res[0].Matches {
		out = append(out, core.StrandedMatch{Match: m, Strand: core.Forward})
	}
	stats.Add(res[1].Stats)
	if res[1].Err != nil {
		return nil, stats, res[1].Err
	}
	for _, m := range res[1].Matches {
		out = append(out, core.StrandedMatch{Match: m, Strand: core.Reverse})
	}
	return out, stats, nil
}

// classify routes short reads — up to one probe block of windows —
// through the coalescer as per-window lookups and ranks them with
// core.RankWindows, which reproduces Classify's diagonal voting
// exactly. Longer reads keep the dedicated LookupLong path: they fill
// whole blocks by themselves, so cross-request packing has nothing to
// add.
func (s *Server) classify(ctx context.Context, read *genome.Sequence, minFrac float64) (core.RefMatch, error) {
	w := s.window
	nWin := 0
	if read.Len() >= w {
		nWin = read.Len() / w
	}
	if s.coal == nil || nWin < 1 || nWin > core.BlockWidth {
		best, _, err := s.lib.Classify(read, minFrac)
		return best, err
	}
	pats := make([]*genome.Sequence, 0, nWin)
	offs := make([]int, 0, nWin)
	for base := 0; base+w <= read.Len(); base += w {
		pats = append(pats, read.Slice(base, base+w))
		offs = append(offs, base)
	}
	results := make([]core.BatchResult, len(pats))
	s.coal.LookupEach(ctx, pats, results)
	wins := make([][]core.Match, len(pats))
	for i := range results {
		if err := results[i].Err; err != nil {
			return core.RefMatch{}, err
		}
		wins[i] = results[i].Matches
	}
	ranked := core.RankWindows(wins, offs, minFrac)
	if len(ranked) == 0 {
		// The same not-found error Classify produces, so the handler's
		// 404 body is byte-identical either way.
		return core.RefMatch{}, fmt.Errorf("%w %v", core.ErrNoSupport, minFrac)
	}
	return ranked[0], nil
}

// lookupBatch runs a parsed batch. With coalescing enabled and the
// pattern count not a multiple of the block width, the remainder
// tail is submitted to the coalescer first — it packs with concurrent
// traffic while the full-block head runs through the batch worker
// pool — instead of leaving a partial block at the end of the batch.
func (s *Server) lookupBatch(ctx context.Context, seqs []*genome.Sequence, workers int) ([]core.BatchResult, core.Stats, error) {
	rem := 0
	if s.coal != nil {
		rem = len(seqs) % core.BlockWidth
	}
	if rem == 0 {
		return s.lib.LookupBatchContext(ctx, seqs, workers)
	}
	cut := len(seqs) - rem
	results := make([]core.BatchResult, len(seqs))
	var tail sync.WaitGroup
	tail.Add(1)
	go func() {
		defer tail.Done()
		s.coal.LookupEach(ctx, seqs[cut:], results[cut:])
	}()
	var agg core.Stats
	var err error
	if cut > 0 {
		var head []core.BatchResult
		head, agg, err = s.lib.LookupBatchContext(ctx, seqs[:cut], workers)
		copy(results, head)
	}
	tail.Wait()
	for i := cut; i < len(results); i++ {
		agg.Add(results[i].Stats)
	}
	if err == nil {
		// Mirror LookupBatchContext's contract: a canceled context is
		// reported even when every slot was filled, so the response
		// carries the "canceled" marker.
		err = ctx.Err()
	}
	return results, agg, err
}

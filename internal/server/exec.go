package server

// The shared request-execution layer: handler bodies factored out of
// the HTTP layer so the binary wire protocol (internal/wire) and the
// JSON API run the exact same code — same parsing, same calls into the
// index, same error taxonomy, same wire result types. Byte-identical
// answers across the two transports fall out by construction; the
// golden-equivalence tests in wire_test.go pin it.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/wire"
)

// A failed request is a *wire.StatusError: the HTTP handlers render it
// as a JSON error body with its code as the status, the wire backend
// as a FlagError response frame carrying the same code and message.

// parsePattern validates and decodes one pattern/read field.
func parsePattern(text string) (*genome.Sequence, *wire.StatusError) {
	if text == "" {
		return nil, &wire.StatusError{Code: http.StatusBadRequest, Msg: "pattern is required"}
	}
	seq, err := genome.FromString(strings.ToUpper(text))
	if err != nil {
		return nil, &wire.StatusError{Code: http.StatusBadRequest, Msg: err.Error()}
	}
	return seq, nil
}

// execSearch runs one search request: parse, look the pattern up —
// a forward search through the coalescer, so concurrent requests share
// probe blocks; both strands as one Search, a two-pattern block — and
// convert matches to the response shape.
func (s *Server) execSearch(ctx context.Context, pattern string, both bool) (wire.SearchResult, *wire.StatusError) {
	pat, serr := parsePattern(pattern)
	if serr != nil {
		return wire.SearchResult{}, serr
	}
	res := wire.SearchResult{Matches: []wire.Match{}}
	if !both {
		matches, stats, err := s.coal.Lookup(ctx, pat)
		if err != nil {
			return wire.SearchResult{}, &wire.StatusError{Code: http.StatusUnprocessableEntity, Msg: err.Error()}
		}
		res.Probes = stats.BucketProbes
		res.Matches = s.appendMatches(res.Matches, matches, core.Forward)
		return res, nil
	}
	var a core.Answer
	err := s.lib.Search(ctx, core.Query{Patterns: []*genome.Sequence{pat}, Both: true}, &a)
	if err = errors.Join(err, a.Results[0].Err); err != nil { // a refused pattern is refused on both strands
		return wire.SearchResult{}, &wire.StatusError{Code: http.StatusUnprocessableEntity, Msg: err.Error()}
	}
	res.Probes = a.Stats.BucketProbes
	for strand, r := range a.Results {
		res.Matches = s.appendMatches(res.Matches, r.Matches, core.Strand(strand))
	}
	return res, nil
}

// appendMatches converts matches found on strand to the response shape.
func (s *Server) appendMatches(dst []wire.Match, matches []core.Match, strand core.Strand) []wire.Match {
	for _, m := range matches {
		dst = append(dst, wire.Match{
			Ref: s.lib.Ref(m.Ref).ID, Offset: m.Off, Distance: m.Distance, Strand: strand.String(),
		})
	}
	return dst
}

// execClassify runs one classify request: a forward Long Search.
func (s *Server) execClassify(ctx context.Context, readText string, minFraction float64) (wire.ClassifyResult, *wire.StatusError) {
	read, serr := parsePattern(readText)
	if serr != nil {
		return wire.ClassifyResult{}, serr
	}
	if minFraction > 1 || math.IsNaN(minFraction) || math.IsInf(minFraction, 0) {
		// A fraction above 1 can never be satisfied, and NaN compares
		// false against every bound below; classifying with either
		// would silently return 404 for every read.
		return wire.ClassifyResult{}, &wire.StatusError{Code: http.StatusBadRequest,
			Msg: fmt.Sprintf("minFraction %v must be in (0, 1]", minFraction)}
	}
	minFrac := minFraction
	if minFrac <= 0 {
		minFrac = 0.5
	}
	var a core.Answer
	err := s.lib.Search(ctx, core.Query{Patterns: []*genome.Sequence{read}, Long: true, MinFrac: minFrac}, &a)
	if err != nil {
		// Invalid input, e.g. a read shorter than the window.
		return wire.ClassifyResult{}, &wire.StatusError{Code: http.StatusUnprocessableEntity, Msg: err.Error()}
	}
	best, err := a.Best()
	if err != nil {
		// Valid read, no reference reaches the support threshold.
		return wire.ClassifyResult{}, &wire.StatusError{Code: http.StatusNotFound, Msg: err.Error()}
	}
	return wire.ClassifyResult{
		Ref:      s.lib.Ref(best.Ref).ID,
		Offset:   best.Offset,
		Votes:    best.Votes,
		Windows:  best.Windows,
		Fraction: best.Fraction,
	}, nil
}

// execBatch runs one /v1/batch request (a wire client pipelines SEARCH
// frames instead). Malformed patterns get per-item errors without
// entering the lookup; the Search runs under Config.RequestTimeout,
// and a canceled or expired context yields the partial results with
// the Canceled marker, matching the HTTP 200 + "canceled" contract.
func (s *Server) execBatch(ctx context.Context, patterns []string) (wire.BatchResult, *wire.StatusError) {
	if len(patterns) == 0 {
		return wire.BatchResult{}, &wire.StatusError{Code: http.StatusBadRequest, Msg: "patterns are required"}
	}
	if len(patterns) > maxBatchPatterns {
		return wire.BatchResult{}, &wire.StatusError{Code: http.StatusRequestEntityTooLarge,
			Msg: fmt.Sprintf("batch of %d exceeds limit %d", len(patterns), maxBatchPatterns)}
	}
	// Parse up front and dispatch only the patterns that parsed: a
	// malformed pattern gets its per-item error without entering the
	// lookup pipeline at all. idx maps each dispatched sequence back
	// to its request slot.
	resp := wire.BatchResult{Results: make([]wire.BatchItem, len(patterns))}
	seqs := make([]*genome.Sequence, 0, len(patterns))
	idx := make([]int, 0, len(patterns))
	for i, p := range patterns {
		resp.Results[i] = wire.BatchItem{Matches: []wire.Match{}}
		seq, err := genome.FromString(strings.ToUpper(p))
		if err != nil {
			resp.Results[i].Error = err.Error()
			continue
		}
		seqs = append(seqs, seq)
		idx = append(idx, i)
	}
	if len(seqs) > 0 {
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		var a core.Answer
		err := s.lib.Search(ctx, core.Query{Patterns: seqs}, &a)
		if err != nil && err != ctx.Err() { // a lookup fails with ctx's error when ctx cut it short
			return wire.BatchResult{}, &wire.StatusError{Code: http.StatusUnprocessableEntity, Msg: err.Error()}
		}
		resp.Canceled = err != nil
		resp.Probes = a.Stats.BucketProbes
		for k, res := range a.Results {
			item := &resp.Results[idx[k]]
			if res.Err != nil {
				item.Error = res.Err.Error()
				continue
			}
			item.Matches = s.appendMatches(item.Matches, res.Matches, core.Forward)
		}
	}
	return resp, nil
}

// execStats reports the index's shape and storage gauges, all from one
// Describe: one view, so the counts in a reply belong together.
func (s *Server) execStats() wire.StatsResult {
	info := s.lib.Describe()
	return wire.StatsResult{
		Backend:       info.Backend,
		References:    info.References,
		Windows:       info.Windows,
		Buckets:       info.Buckets,
		Dim:           info.Dim,
		Window:        info.Window,
		Stride:        info.Stride,
		Capacity:      info.Capacity,
		Approx:        info.Approx,
		Tolerance:     info.Tolerance,
		Threshold:     info.Threshold,
		MemBytes:      info.MemoryBytes,
		MappedBytes:   info.MappedBytes,
		ResidentBytes: info.ResidentBytes,
		Segments:      info.Segments,
		Tombstones:    info.TombstoneRatio,

		RowWords:            info.RowWords,
		SketchWords:         info.SketchWords,
		SketchBytes:         info.SketchBytes,
		SketchSurvivorRatio: info.SketchSurvivorRatio,
	}
}

package core

import (
	"context"

	"repro/internal/genome"
)

// SearchBatch is a lookup Search of patterns into a fresh Answer: its
// entries, its Stats and Search's error.
func SearchBatch(ctx context.Context, idx Index, patterns []*genome.Sequence) ([]BatchResult, Stats, error) {
	var a Answer
	err := idx.Search(ctx, Query{Patterns: patterns}, &a)
	return a.Results, a.Stats, err
}

// SearchLong is a forward Long Search of query into a fresh Answer: the
// ranked references, the Stats and Search's error.
func SearchLong(idx Index, query *genome.Sequence, minFrac float64) ([]RefMatch, Stats, error) {
	var a Answer
	err := idx.Search(context.Background(), Query{Patterns: []*genome.Sequence{query}, Long: true, MinFrac: minFrac}, &a)
	return a.Ranked, a.Stats, err
}

// RankWindows runs a Long Search's diagonal-voting epilogue over window
// match lists produced elsewhere: wins[i] holds the matches of the
// query window starting at absolute query offset offs[i] (as returned
// by Lookup on the window sub-slice, so QueryOff is window-relative).
// Votes, tie-breaks, filtering, and ordering are identical to a Long
// Search over the same windows, so an oracle that looks windows up one
// at a time ranks them as Search does. Test-only: the package's callers
// classify through Search.
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
	return rankVotes(votes, make(map[int]diagKey), len(wins), minFrac, nil)
}

// ForgeHugeDirectory is forgeHugeDirectory, for the conformance suite's
// TestForgedDirectoryRejected on every backend.
var ForgeHugeDirectory = forgeHugeDirectory

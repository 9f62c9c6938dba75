package core

// RankWindows runs LookupLong's diagonal-voting epilogue over window
// match lists produced elsewhere: wins[i] holds the matches of the
// query window starting at absolute query offset offs[i] (as returned
// by Lookup on the window sub-slice, so QueryOff is window-relative).
// Votes, tie-breaks, filtering, and ordering are identical to
// LookupLong over the same windows, so an oracle that looks windows up
// one at a time ranks them as LookupLong does. Test-only: the package's
// callers classify through LookupLong.
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

// ForgeHugeDirectory is forgeHugeDirectory, for the conformance suite's
// TestForgedDirectoryRejected on every backend.
var ForgeHugeDirectory = forgeHugeDirectory

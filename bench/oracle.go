package main

import "repro/internal/genome"

// The oracle is the benchmark's own ground truth, independent of every
// index backend: for patterns, a scan of the reference text that
// compares every window with the pattern; for reads, the reference the
// read was cut from (recorded when it was drawn). References are
// uniformly random, so a 32-base pattern has no accidental second home
// and the truth is unambiguous.
//
// The scan packs a window's 32 bases into the 64 bits of a word, two
// bits a base, and rolls it along each reference, so every window of
// every reference is compared exactly, in one pass for all the patterns
// at once. (Sequence.Index, one pattern at a time, is the same scan and
// what the unit test holds this against; at a thousand 2 kb references
// it alone would take longer than the measured run.)

// rollWindows calls fn with the packed bases of every window of seq.
// With window = 32 a window fills the word and the oldest base shifts
// out as the next shifts in.
func rollWindows(seq *genome.Sequence, fn func(off int, packed uint64)) {
	var packed uint64
	for i := 0; i < seq.Len(); i++ {
		packed = packed<<2 | uint64(seq.At(i))
		if i >= window-1 {
			fn(i-window+1, packed)
		}
	}
}

// fillOracle computes Want for every pattern query of the pools: all
// its exact occurrences, ordered by reference index then offset.
func fillOracle(refs []genome.Record, pools ...[]query) {
	asking := map[uint64][]*query{}
	for _, pool := range pools {
		for i := range pool {
			q := &pool[i]
			rollWindows(q.Seq, func(_ int, packed uint64) {
				asking[packed] = append(asking[packed], q)
			})
		}
	}
	for _, r := range refs {
		rollWindows(r.Seq, func(off int, packed uint64) {
			for _, q := range asking[packed] {
				q.Want = append(q.Want, hit{Ref: r.ID, Off: off})
			}
		})
	}
}

// sameHits reports whether an answer equals the oracle's, order
// included: every backend documents (reference index, offset) order.
func sameHits(got, want []hit) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// commonHits counts the occurrences two answers share.
func commonHits(got, want []hit) int {
	n := 0
	for _, g := range got {
		for _, w := range want {
			if g == w {
				n++
				break
			}
		}
	}
	return n
}

package core

import (
	"math/bits"

	"repro/internal/genome"
)

// Content routing (DESIGN §8.6): an exact library files each window
// under one of G groups picked by a hash of its bases, so that a lookup,
// whose window can only be stored where its own bases send it, scores
// its group's buckets and the spill instead of the whole plane. Nothing
// here touches segment storage; the builder and the probe in segment.go
// do.

// keyMul is the multiplier of the window key's mix, ⌊2⁶⁴/φ⌋ (Fibonacci
// hashing): the top bits of the product spread inputs that differ only
// in their low bits.
const keyMul = 0x9e3779b97f4a7c15

// windowKey is the routing key of the w bases of seq from off: each
// word of at most 32 bases, in order, XORed into the key and mixed by
// one multiply. A window's group is the key's top bits (groupOf).
func windowKey(seq *genome.Sequence, off, w int) uint64 {
	var h uint64
	for ; w > 32; off, w = off+32, w-32 {
		h = (h ^ seq.Word(off, 32)) * keyMul
	}
	return (h ^ seq.Word(off, w)) * keyMul
}

// groupOf is the group of key among groups, a power of two: the key's
// top log₂(groups) bits (a shift by 64 leaves 0, the one group).
func groupOf(key uint64, groups int) int {
	return int(key >> (64 - bits.TrailingZeros(uint(groups))))
}

// routeBudget caps the builder's open rows: each group holds one open
// bucket of up to C encodings of D/8 bytes, so G·C·D/8 bytes wait to be
// folded — the only cost of a build that does not scale with its
// windows.
const routeBudget = 1 << 20

// maxRouteGroups caps G where the budget would allow more. More groups
// shrink a lookup's group but grow the spill, about G/2 buckets a
// segment, and the open rows a builder touches. 64 groups would score
// ≈ 128 + 32 of scan_exact_wire's 8 192 rows a lookup against 32
// groups' ≈ 256 + 16, but more than 32 groups do in segments of a few
// hundred buckets (point_small_wire's 256, churn_http's 64), and their
// open rows added a quarter to point_small_wire's set-up where 32
// groups' add a tenth (DESIGN §8.6).
const maxRouteGroups = 32

// routeGroups derives G from the geometry: the most groups, a power of
// two up to maxRouteGroups, whose open rows fit routeBudget — 32 at
// C = 16, D = 8192 and 16 at the model's C = 63 there. Approximate
// libraries are not routed (0): a query window with substitutions
// hashes elsewhere than the window it should find.
func routeGroups(p Params) int {
	if p.Approx {
		return 0
	}
	open := max(p.Capacity, 1) * p.Dim / 8
	g := 1
	for g < maxRouteGroups && 2*g*open <= routeBudget {
		g *= 2
	}
	return g
}

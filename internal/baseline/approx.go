package baseline

import (
	"fmt"

	"repro/internal/genome"
)

// ApproxOccurrence is one approximate match: the end position of a
// substring of the text whose distance to the pattern is within the
// allowed budget.
type ApproxOccurrence struct {
	End  int // exclusive end offset of the matching substring in the text
	Dist int // edit (or substitution) distance of the best match ending here
}

// --- Myers bit-parallel ---------------------------------------------------

// Myers is Myers' bit-parallel approximate matcher: computes the
// edit-distance DP column in O(1) word operations per text character for
// patterns up to 64 bases. The state-of-the-art CPU/GPU kernel for short
// patterns and the software baseline the paper's GPU numbers represent.
type Myers struct{}

// Find returns all approximate occurrences of pattern in text within
// edit distance k, plus the number of word updates spent. It panics if
// the pattern exceeds 64 bases.
func (Myers) Find(text, pattern *genome.Sequence, k int) ([]ApproxOccurrence, int) {
	m, n := pattern.Len(), text.Len()
	if m == 0 || n == 0 {
		return nil, 0
	}
	if m > 64 {
		panic(fmt.Sprintf("baseline: Myers pattern length %d > 64", m))
	}
	if k < 0 {
		panic(fmt.Sprintf("baseline: negative distance budget %d", k))
	}
	ops := 0
	var peq [genome.AlphabetSize]uint64
	for i := 0; i < m; i++ {
		peq[pattern.At(i)] |= 1 << uint(i)
	}
	pv := ^uint64(0)
	mv := uint64(0)
	score := m
	high := uint64(1) << uint(m-1)
	var out []ApproxOccurrence
	// Hyyrö's formulation of the search variant: the DP first row is all
	// zeros (a match may start anywhere), so no carry enters the shifted
	// horizontal vectors.
	for i := 0; i < n; i++ {
		x := peq[text.At(i)] | mv
		d0 := (x&pv + pv) ^ pv | x
		hp := mv | ^(d0 | pv)
		hn := pv & d0
		if hp&high != 0 {
			score++
		}
		if hn&high != 0 {
			score--
		}
		hp <<= 1
		pv = hn<<1 | ^(d0 | hp)
		mv = hp & d0
		ops++ // constant word work per character
		if score <= k {
			out = append(out, ApproxOccurrence{End: i + 1, Dist: score})
		}
	}
	return out, ops
}

// --- Sellers' dynamic programming -----------------------------------------

// SellersDP is the classical dynamic-programming approximate matcher
// (Sellers' algorithm): the full O(m·n) edit-distance table against the
// text, with the first row zeroed so matches can start anywhere. The
// canonical alignment-quality ground truth.
type SellersDP struct{}

// Find returns all approximate occurrences of pattern in text within
// edit distance k, plus the number of DP cells evaluated.
func (SellersDP) Find(text, pattern *genome.Sequence, k int) ([]ApproxOccurrence, int) {
	m, n := pattern.Len(), text.Len()
	if m == 0 || n == 0 {
		return nil, 0
	}
	if k < 0 {
		panic(fmt.Sprintf("baseline: negative distance budget %d", k))
	}
	ops := 0
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	var out []ApproxOccurrence
	for i := 1; i <= n; i++ {
		cur[0] = 0
		for j := 1; j <= m; j++ {
			cost := 1
			if text.At(i-1) == pattern.At(j-1) {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			ops++
		}
		if cur[m] <= k {
			out = append(out, ApproxOccurrence{End: i, Dist: cur[m]})
		}
		prev, cur = cur, prev
	}
	return out, ops
}

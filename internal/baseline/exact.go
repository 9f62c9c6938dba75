// Package baseline implements the classical sequence-search algorithms
// BioHD is compared against: exact pattern matching (naive,
// Knuth–Morris–Pratt, Boyer–Moore–Horspool, Shift-Or), approximate
// matching (Myers bit-parallel edit distance, Sellers' DP), and a
// seed-and-extend aligner in the BLAST tradition.
//
// Every matcher reports an operation count alongside its results so the
// experiment harness can compare algorithmic work (T2) and measured
// throughput (F5); Myers is F3's ground truth and the seed index F10's
// comparator.
package baseline

import (
	"fmt"

	"repro/internal/genome"
)

// Occurrence is one exact match of a pattern in a text.
type Occurrence struct {
	Off int // offset of the match in the text
}

// ExactMatcher is a classical exact pattern-matching algorithm.
type ExactMatcher interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Find returns all occurrences of pattern in text plus the number of
	// elementary operations (character comparisons / word updates) spent.
	Find(text, pattern *genome.Sequence) ([]Occurrence, int)
}

// --- Knuth–Morris–Pratt ---------------------------------------------------

// KMP is the Knuth–Morris–Pratt matcher: linear-time exact matching via
// the prefix-function automaton. Its strictly sequential automaton
// stepping is the paper's archetype of a hard-to-parallelize scan.
type KMP struct{}

// Name implements ExactMatcher.
func (KMP) Name() string { return "kmp" }

// Find implements ExactMatcher.
func (KMP) Find(text, pattern *genome.Sequence) ([]Occurrence, int) {
	m := pattern.Len()
	if m == 0 || m > text.Len() {
		return nil, 0
	}
	ops := 0
	// Prefix function.
	pi := make([]int, m)
	k := 0
	for i := 1; i < m; i++ {
		for k > 0 && pattern.At(k) != pattern.At(i) {
			k = pi[k-1]
			ops++
		}
		ops++
		if pattern.At(k) == pattern.At(i) {
			k++
		}
		pi[i] = k
	}
	// Scan.
	var out []Occurrence
	q := 0
	for i := 0; i < text.Len(); i++ {
		for q > 0 && pattern.At(q) != text.At(i) {
			q = pi[q-1]
			ops++
		}
		ops++
		if pattern.At(q) == text.At(i) {
			q++
		}
		if q == m {
			out = append(out, Occurrence{Off: i - m + 1})
			q = pi[q-1]
		}
	}
	return out, ops
}

// --- Boyer–Moore–Horspool -------------------------------------------------

// BMH is the Boyer–Moore–Horspool matcher: sublinear average-case exact
// matching using the bad-character shift table. Representative of the
// fastest single-pattern CPU scanners on DNA's small alphabet.
type BMH struct{}

// Name implements ExactMatcher.
func (BMH) Name() string { return "bmh" }

// Find implements ExactMatcher.
func (BMH) Find(text, pattern *genome.Sequence) ([]Occurrence, int) {
	m, n := pattern.Len(), text.Len()
	if m == 0 || m > n {
		return nil, 0
	}
	ops := 0
	var shift [genome.AlphabetSize]int
	for b := range shift {
		shift[b] = m
	}
	for i := 0; i < m-1; i++ {
		shift[pattern.At(i)] = m - 1 - i
	}
	var out []Occurrence
	pos := 0
	for pos+m <= n {
		j := m - 1
		for j >= 0 {
			ops++
			if text.At(pos+j) != pattern.At(j) {
				break
			}
			j--
		}
		if j < 0 {
			out = append(out, Occurrence{Off: pos})
			pos++
		} else {
			pos += shift[text.At(pos+m-1)]
		}
	}
	return out, ops
}

// --- Shift-Or (bitap) -----------------------------------------------------

// ShiftOr is the bit-parallel Shift-Or (bitap) matcher: the automaton
// state lives in machine words, one word update per text character.
// Limited to patterns of at most 64 bases — exactly the regime of BioHD
// window queries — and the classical point of comparison for bit-level
// parallelism on CPUs/GPUs.
type ShiftOr struct{}

// Name implements ExactMatcher.
func (ShiftOr) Name() string { return "shift-or" }

// Find implements ExactMatcher. It panics if the pattern exceeds 64
// bases (use KMP or BMH there).
func (ShiftOr) Find(text, pattern *genome.Sequence) ([]Occurrence, int) {
	m, n := pattern.Len(), text.Len()
	if m == 0 || m > n {
		return nil, 0
	}
	if m > 64 {
		panic(fmt.Sprintf("baseline: Shift-Or pattern length %d > 64", m))
	}
	ops := 0
	var masks [genome.AlphabetSize]uint64
	for b := range masks {
		masks[b] = ^uint64(0)
	}
	for i := 0; i < m; i++ {
		masks[pattern.At(i)] &^= 1 << uint(i)
	}
	accept := uint64(1) << uint(m-1)
	state := ^uint64(0)
	var out []Occurrence
	for i := 0; i < n; i++ {
		state = state<<1 | masks[text.At(i)]
		ops++ // one word update per character
		if state&accept == 0 {
			out = append(out, Occurrence{Off: i - m + 1})
		}
	}
	return out, ops
}

// --- Naive scan -----------------------------------------------------------

// Naive is the brute-force scanner; the oracle baseline for tests and
// the zero-preprocessing point in the op-count comparison.
type Naive struct{}

// Name implements ExactMatcher.
func (Naive) Name() string { return "naive" }

// Find implements ExactMatcher.
func (Naive) Find(text, pattern *genome.Sequence) ([]Occurrence, int) {
	m, n := pattern.Len(), text.Len()
	if m == 0 || m > n {
		return nil, 0
	}
	ops := 0
	var out []Occurrence
	for i := 0; i+m <= n; i++ {
		match := true
		for j := 0; j < m; j++ {
			ops++
			if text.At(i+j) != pattern.At(j) {
				match = false
				break
			}
		}
		if match {
			out = append(out, Occurrence{Off: i})
		}
	}
	return out, ops
}

// Package genome is the genomics substrate for BioHD: 2-bit-packed DNA
// sequences, FASTA input/output, mutation models with ground-truth edit
// tracking, and synthetic dataset generators (uniform random genomes,
// COVID-like variant databases, and sequencing-read samplers).
//
// The paper evaluates on public genome databases (GISAID COVID-19,
// bacterial and human references). This module is offline, so the
// generators here synthesize statistically comparable inputs: same
// alphabet, length scales, and variant structure (shared ancestry plus
// point mutations). See DESIGN.md §4 for the substitution rationale.
package genome

import (
	"fmt"
	"strings"
)

// Base is a DNA nucleotide encoded in 2 bits: A=0, C=1, G=2, T=3.
type Base uint8

// The four nucleotides.
const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3
)

// AlphabetSize is the number of distinct bases.
const AlphabetSize = 4

// Byte returns the upper-case ASCII letter for b.
func (b Base) Byte() byte {
	return "ACGT"[b&3]
}

// ParseBase converts an ASCII nucleotide (either case) to a Base.
// Ambiguity codes (N, R, Y, ...) are rejected: BioHD's encoder operates
// on the concrete 4-letter alphabet, and the synthetic generators never
// emit ambiguity codes.
func ParseBase(c byte) (Base, error) {
	switch c {
	case 'A', 'a':
		return A, nil
	case 'C', 'c':
		return C, nil
	case 'G', 'g':
		return G, nil
	case 'T', 't':
		return T, nil
	default:
		return 0, fmt.Errorf("genome: invalid nucleotide %q", c)
	}
}

// Complement returns the Watson–Crick complement of b.
func (b Base) Complement() Base { return 3 - b }

const basesPerWord = 32

// Sequence is an immutable-by-convention DNA sequence packed 2 bits per
// base (32 bases per 64-bit word). The zero value is the empty sequence.
type Sequence struct {
	words []uint64
	n     int
}

// NewSequence returns a sequence of n A's (all bits zero).
func NewSequence(n int) *Sequence {
	if n < 0 {
		panic(fmt.Sprintf("genome: negative length %d", n))
	}
	return &Sequence{words: make([]uint64, (n+basesPerWord-1)/basesPerWord), n: n}
}

// FromString parses an ASCII nucleotide string into a Sequence.
func FromString(s string) (*Sequence, error) {
	seq := NewSequence(len(s))
	for i := 0; i < len(s); i++ {
		b, err := ParseBase(s[i])
		if err != nil {
			return nil, fmt.Errorf("genome: position %d: %w", i, err)
		}
		seq.Set(i, b)
	}
	return seq, nil
}

// MustFromString is FromString that panics on error; for tests and
// literals only.
func MustFromString(s string) *Sequence {
	seq, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return seq
}

// FromBases builds a sequence from a base slice.
func FromBases(bs []Base) *Sequence {
	seq := NewSequence(len(bs))
	for i, b := range bs {
		seq.Set(i, b)
	}
	return seq
}

// Len returns the number of bases.
func (s *Sequence) Len() int { return s.n }

// rangeError is the panic value of an out-of-range At or Set. It
// formats only when printed, which keeps both accessors under the
// compiler's inlining budget (`make inline` checks that they are).
type rangeError struct{ i, n int }

func (e rangeError) Error() string {
	return fmt.Sprintf("genome: index %d out of range [0,%d)", e.i, e.n)
}

// At returns the base at position i. It panics if i is out of range.
func (s *Sequence) At(i int) Base {
	if i < 0 || i >= s.n {
		panic(rangeError{i, s.n})
	}
	return Base(s.words[i/basesPerWord] >> (uint(i%basesPerWord) * 2) & 3)
}

// Set writes base b at position i. It panics if i is out of range.
func (s *Sequence) Set(i int, b Base) {
	if i < 0 || i >= s.n {
		panic(rangeError{i, s.n})
	}
	shift := uint(i%basesPerWord) * 2
	w := &s.words[i/basesPerWord]
	*w = *w&^(3<<shift) | uint64(b&3)<<shift
}

// PackedWords exposes the 2-bit-packed words (32 bases per word). The
// slice is shared; treat it as read-only. For serialization.
func (s *Sequence) PackedWords() []uint64 { return s.words }

// FromPackedWords reconstructs a sequence of n bases from 2-bit-packed
// words (as produced by PackedWords). The words are copied. It panics if
// words cannot hold n bases.
func FromPackedWords(words []uint64, n int) *Sequence {
	need := (n + basesPerWord - 1) / basesPerWord
	if len(words) < need {
		panic(fmt.Sprintf("genome: %d words cannot hold %d bases", len(words), n))
	}
	w := make([]uint64, need)
	copy(w, words[:need])
	seq := &Sequence{words: w, n: n}
	return seq
}

// String renders the sequence as ASCII nucleotides.
func (s *Sequence) String() string {
	var sb strings.Builder
	sb.Grow(s.n)
	for i := 0; i < s.n; i++ {
		sb.WriteByte(s.At(i).Byte())
	}
	return sb.String()
}

// Clone returns an independent copy.
func (s *Sequence) Clone() *Sequence {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Sequence{words: w, n: s.n}
}

// Equal reports whether s and o are the same sequence.
func (s *Sequence) Equal(o *Sequence) bool {
	if s.n != o.n {
		return false
	}
	for i := 0; i < s.n; i++ { // tail words may differ in padding, compare by base
		if s.At(i) != o.At(i) {
			return false
		}
	}
	return true
}

// Slice returns the subsequence [start, end) as a new Sequence.
// It panics on an invalid range.
func (s *Sequence) Slice(start, end int) *Sequence {
	if start < 0 || end > s.n || start > end {
		panic(fmt.Sprintf("genome: invalid slice [%d,%d) of length %d", start, end, s.n))
	}
	out := NewSequence(end - start)
	for i := start; i < end; i++ {
		out.Set(i-start, s.At(i))
	}
	return out
}

// Append returns a new sequence that is s followed by o.
func (s *Sequence) Append(o *Sequence) *Sequence {
	out := NewSequence(s.n + o.n)
	for i := 0; i < s.n; i++ {
		out.Set(i, s.At(i))
	}
	for i := 0; i < o.n; i++ {
		out.Set(s.n+i, o.At(i))
	}
	return out
}

// ReverseComplement returns the reverse complement of s — the sequence
// read from the opposite DNA strand.
func (s *Sequence) ReverseComplement() *Sequence {
	out := NewSequence(s.n)
	for i := 0; i < s.n; i++ {
		out.Set(s.n-1-i, s.At(i).Complement())
	}
	return out
}

// KmerAt returns the 2-bit packed k-mer starting at position i as an
// integer in [0, 4^k). It panics if k > 31 or the k-mer overruns the
// sequence.
func (s *Sequence) KmerAt(i, k int) uint64 {
	if k <= 0 || k > 31 {
		panic(fmt.Sprintf("genome: k=%d out of range [1,31]", k))
	}
	if i < 0 || i+k > s.n {
		panic(fmt.Sprintf("genome: k-mer [%d,%d) overruns length %d", i, i+k, s.n))
	}
	var v uint64
	for j := 0; j < k; j++ {
		v = v<<2 | uint64(s.At(i+j))
	}
	return v
}

// BaseCounts returns the number of occurrences of each base.
func (s *Sequence) BaseCounts() [AlphabetSize]int {
	var c [AlphabetSize]int
	for i := 0; i < s.n; i++ {
		c[s.At(i)]++
	}
	return c
}

// Index returns the offset of the first exact occurrence of pattern in s
// at or after position from, or −1 if there is none. Naive scan; this is
// a correctness oracle for tests, not a search algorithm (those live in
// internal/baseline).
func (s *Sequence) Index(pattern *Sequence, from int) int {
	if pattern.n == 0 {
		return from
	}
	for i := from; i+pattern.n <= s.n; i++ {
		match := true
		for j := 0; j < pattern.n; j++ {
			if s.At(i+j) != pattern.At(j) {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

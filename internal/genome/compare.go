package genome

import (
	"fmt"
	"math/bits"
)

// Word-parallel comparison on the packed representation, 32 bases per
// 64-bit operation: both backends verify their candidates here.

// lowBits is the 0b01 pattern of a packed word: bit 2i marks base i.
const lowBits = 0x5555555555555555

// baseMask returns the mask of the low k bases of a packed word, for k in
// [1, 32].
func baseMask(k int) uint64 {
	return ^uint64(0) >> (64 - 2*uint(k))
}

// word32 returns the 32 bases of s starting at i in one word, base i in
// the low two bits. Positions past the last stored word read as A;
// callers mask to the bases they compare, so the padding of the last
// word is never one of them.
func (s *Sequence) word32(i int) uint64 {
	q, r := i/basesPerWord, uint(i%basesPerWord)*2
	v := s.words[q] >> r
	if r != 0 && q+1 < len(s.words) {
		v |= s.words[q+1] << (64 - r)
	}
	return v
}

// windowError is the panic value of a window outside its sequence,
// formatted only when printed so that checkWindow inlines.
type windowError struct{ off, w, n int }

func (e windowError) Error() string {
	return fmt.Sprintf("genome: window [%d,%d) out of range [0,%d)", e.off, e.off+e.w, e.n)
}

// checkWindow panics unless [off, off+w) is a non-empty window of s.
func checkWindow(s *Sequence, off, w int) {
	if w <= 0 || off < 0 || off > s.n-w {
		panic(windowError{off, w, s.n})
	}
}

// FindAll appends to dst the offset of every occurrence of
// pat[poff:poff+w] in text, in increasing order, and returns dst with
// the base comparisons a left-to-right naive scan makes: at each offset,
// the length of the matched prefix plus one for the mismatching base (w
// at an occurrence). A text shorter than w has no offsets and costs
// nothing. It panics unless [poff, poff+w) is a non-empty window of pat.
//
// The first min(w, 32) bases of the pattern are one key word; the text
// window rolls in one base a step and is compared with one XOR, whose
// trailing zeros give the matched prefix. Bases past the first 32 are
// compared only where the first 32 agree.
func FindAll(dst []int, text, pat *Sequence, poff, w int) ([]int, int) {
	checkWindow(pat, poff, w)
	last := text.n - w
	if last < 0 {
		return dst, 0
	}
	k := min(w, basesPerWord)
	mask := baseMask(k)
	top := 2 * uint(k-1)
	key := pat.word32(poff) & mask
	win := text.word32(0) & mask
	// nw holds text[next] and the rest of its word, lowest bits first:
	// the next base to roll in at the window's top.
	next := uint(k)
	var nw uint64
	if next < uint(text.n) {
		nw = text.words[next/basesPerWord] >> (next % basesPerWord * 2)
	}
	cmps := 0
	for off := 0; ; off++ {
		if x := win ^ key; x != 0 {
			cmps += bits.TrailingZeros64(x)/2 + 1
		} else if n := tailPrefix(text, off, pat, poff, w); n < w {
			cmps += n + 1
		} else {
			cmps += w
			dst = append(dst, off)
		}
		if off == last {
			return dst, cmps
		}
		win = win>>2 | (nw&3)<<top
		nw >>= 2
		if next++; next%basesPerWord == 0 && next < uint(text.n) {
			nw = text.words[next/basesPerWord]
		}
	}
}

// tailPrefix returns how many of the w bases at text[toff:] and
// pat[poff:] agree before the first mismatch, given that the first 32
// (or all w, if fewer) already do.
func tailPrefix(text *Sequence, toff int, pat *Sequence, poff, w int) int {
	for c := basesPerWord; c < w; c += basesPerWord {
		x := (text.word32(toff+c) ^ pat.word32(poff+c)) & baseMask(min(w-c, basesPerWord))
		if x != 0 {
			return c + bits.TrailingZeros64(x)/2
		}
	}
	return w
}

// Mismatches returns the number of positions at which a[aoff:aoff+w] and
// b[boff:boff+w] differ, comparing 32 bases at a time. It stops once the
// count exceeds limit, so any result above limit is a lower bound. It
// panics unless both windows are in range.
func Mismatches(a *Sequence, aoff int, b *Sequence, boff, w, limit int) int {
	checkWindow(a, aoff, w)
	checkWindow(b, boff, w)
	d := 0
	for c := 0; c < w; c += basesPerWord {
		x := (a.word32(aoff+c) ^ b.word32(boff+c)) & baseMask(min(w-c, basesPerWord))
		d += bits.OnesCount64((x | x>>1) & lowBits)
		if d > limit {
			break
		}
	}
	return d
}

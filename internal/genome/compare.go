package genome

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
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

// Word returns the k bases of s starting at i in one word, base i in the
// low two bits and the bits above base k clear, for k in [1, 32]. It
// panics unless [i, i+k) is a window of s.
func (s *Sequence) Word(i, k int) uint64 {
	if k > basesPerWord {
		panic(windowError{i, k, s.n})
	}
	checkWindow(s, i, k)
	return s.word32(i) & baseMask(k)
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
// Offsets are tested 32 at a time, offset b+i in the 2-bit lane i of one
// word: step j compares text[b+j+i] in every lane with the one pattern
// base pat[poff+j] broadcast to all lanes, and clears the lanes that
// differ from the live mask m (bit 2i for lane i). A block ends once no
// lane is live, which on random text is after about four steps, or after
// min(w, 32) steps; a lane live then has matched the first 32 bases and
// compares the rest a word at a time (tailPrefix).
//
// With w ≥ 8 the blocks whose 32 lanes are all offsets go through
// bitvec.LaneMatch first, eight blocks (256 offsets) per step on
// AVX-512: it runs steps 0–7 and hands back only the blocks with a lane
// still live, which finish here from step 8. The rest — the blocks after
// the last whole group, the last (partial) block, every block of a
// shorter window, and every block where the kernel scans nothing — run
// the scalar steps from step 0.
//
// The count needs no per-offset work. With mⱼ the live mask after step
// j, a lane is in mⱼ exactly when its matched prefix is longer than j,
// so Σⱼ popcount(mⱼ) is the sum of the matched prefixes (each capped at
// 32; tailPrefix adds the rest). The naive scan makes prefix+1
// comparisons at an offset but only w = prefix at an occurrence, so it
// makes offsets + Σⱼ popcount(mⱼ) − occurrences.
func FindAll(dst []int, text, pat *Sequence, poff, w int) ([]int, int) {
	checkWindow(pat, poff, w)
	last := text.n - w
	if last < 0 {
		return dst, 0
	}
	f := laneScan{text: text, pat: pat, poff: poff, w: w, k: min(w, basesPerWord), key: pat.word32(poff)}
	cmps := last + 1
	q := 0
	if f.k >= bitvec.LaneSteps {
		// Block full−1 is the last whose lanes are all offsets; its
		// second word, full, exists because w ≥ 8.
		full := (last + 1) / basesPerWord
		var blocks [laneRoom]int32
		var masks [laneRoom]uint64
		for q+bitvec.LaneGroup <= full {
			g, n, c := bitvec.LaneMatch(text.words[q:full+1], f.key, blocks[:], masks[:])
			if g == 0 {
				break
			}
			cmps += c
			for i, blk := range blocks[:n] {
				dst, cmps = f.finish(dst, cmps, q+int(blk), masks[i], bitvec.LaneSteps)
			}
			q += g * bitvec.LaneGroup
		}
	}
	// bcj is pattern base j broadcast to every lane; later steps
	// broadcast theirs in finish.
	key := f.key
	bc0, bc1, bc2, bc3 := key&3*lowBits, key>>2&3*lowBits, key>>4&3*lowBits, key>>6&3*lowBits
	for ; q*basesPerWord <= last; q++ {
		b := q * basesPerWord
		// The last block's lanes past last would read the text's end and
		// the padding beyond it.
		m := lowBits & baseMask(min(last-b+1, basesPerWord))
		j := 0
		if f.k >= 4 {
			// The first four steps, without a branch: on random text a
			// block has no live lane only after about four.
			lo, hi := f.blockWords(q)
			x0 := lo ^ bc0
			x1 := (lo>>2 | hi<<62) ^ bc1
			x2 := (lo>>4 | hi<<60) ^ bc2
			x3 := (lo>>6 | hi<<58) ^ bc3
			m &^= x0 | x0>>1
			c := bits.OnesCount64(m)
			m &^= x1 | x1>>1
			c += bits.OnesCount64(m)
			m &^= x2 | x2>>1
			c += bits.OnesCount64(m)
			m &^= x3 | x3>>1
			cmps += c + bits.OnesCount64(m)
			j = 4
		}
		if m != 0 {
			dst, cmps = f.finish(dst, cmps, q, m, j)
		}
	}
	return dst, cmps
}

// laneRoom is how many surviving blocks FindAll takes back from one
// bitvec.LaneMatch call, in scratch on its stack: eight groups of
// all-live blocks, while on random text one call covers the text.
const laneRoom = 64

// laneScan is one FindAll: the text, the pattern window, the lane steps
// a block runs (k = min(w, 32)) and the window's first 32 bases.
type laneScan struct {
	text, pat *Sequence
	poff, w   int
	k         int
	key       uint64
}

// blockWords returns the two words block q's lanes read: step j reads
// text[32q+j:] as lo>>2j | hi<<(64−2j), so lane i holds text[32q+j+i]
// for every j < 32.
func (f *laneScan) blockWords(q int) (lo, hi uint64) {
	words := f.text.words
	lo = words[q]
	if q+1 < len(words) {
		hi = words[q+1]
	}
	return lo, hi
}

// finish runs block q's lane steps from j on, starting from the live
// mask m, and appends the offsets of the lanes live after k steps that
// match the whole window, adding each step's popcount to cmps.
func (f *laneScan) finish(dst []int, cmps, q int, m uint64, j int) ([]int, int) {
	lo, hi := f.blockWords(q)
	for ; m != 0 && j < f.k; j++ {
		s := 2 * uint(j)
		x := (lo>>s | hi<<(64-s)) ^ f.key>>s&3*lowBits
		m &^= x | x>>1
		cmps += bits.OnesCount64(m)
	}
	// A lane live now has matched the first min(w, 32) bases.
	b := q * basesPerWord
	for ; m != 0; m &= m - 1 {
		off := b + bits.TrailingZeros64(m)/2
		if f.w > basesPerWord {
			n := tailPrefix(f.text, off, f.pat, f.poff, f.w)
			if cmps += n - basesPerWord; n < f.w {
				continue
			}
		}
		cmps--
		dst = append(dst, off)
	}
	return dst, cmps
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

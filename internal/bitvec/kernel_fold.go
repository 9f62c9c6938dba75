package bitvec

import (
	"fmt"
	"math/bits"
)

// This file holds the row-fold kernels: a lane-wise reduction over rows
// picked by index out of one flat table (row i at words [i·rowWords,
// (i+1)·rowWords)). BioHD's two window encoders are folds of the same
// Window rows of the encoder's rotated-base table — the approximate
// bundle is their majority, the exact binding chain their parity — so
// both live here beside the scan kernels, behind the same tier dispatch.
//
// The portable majority tier counts the one-bits of every lane as
// bits.Len(len(idx)) bit planes, one 64-bit word column at a time. On
// amd64 the vector tiers (AVX-512 for both folds, AVX2 for the majority
// only) take a column block of eight words per step; the majority holds
// eight planes in registers, seeded with 127 − ⌊n/2⌋ so that the
// threshold compare falls out of the adder: "ones > ⌊n/2⌋" is plane 7
// and a tie is planes 0–6 all set. Eight planes count to 255, hence the
// n ≤ foldMaxRows gate; wider folds and row widths that are not whole
// blocks stay on the portable tier. All tiers write the same bits —
// kernel_fold_test.go and kernel_amd64_test.go pin them together.

// foldMaxRows is the most rows the vector majority tiers fold: the
// biased count ones + 127 − ⌊n/2⌋ must fit eight bit planes.
const foldMaxRows = 255

// foldExtent returns the smallest and largest row index in idx, which
// must not be empty.
func foldExtent(idx []int32) (lo, hi int32) {
	lo, hi = idx[0], idx[0]
	for _, i := range idx[1:] {
		lo, hi = min(lo, i), max(hi, i)
	}
	return lo, hi
}

// MajorityRows stores into out the lane-wise majority of the rows of
// table named by idx: bit j of out is set where more than ⌊len(idx)/2⌋
// of the rows have bit j set. Where exactly half do — possible only
// for an even number of rows — the bit is taken from tie if tieOn and
// is zero otherwise. A row may be named more than once.
//
// It panics if rowWords is not positive, out or tie is not rowWords
// long, idx is empty, or an index does not name a whole row of table.
//
//biohd:hotpath
func MajorityRows(out, table []uint64, idx []int32, rowWords int, tie []uint64, tieOn bool) {
	if len(tie) != rowWords {
		panic(fmt.Sprintf("bitvec: MajorityRows tie of %d words for %d-word rows", len(tie), rowWords))
	}
	majorityRows(out, nil, table, idx, rowWords, tie, foldTieMask(len(idx), tieOn))
}

// MajorityRowsEq stores into out the lane-wise strict majority of the
// rows of table named by idx — MajorityRows with tieOn false — and into
// eq the lanes where exactly ⌊len(idx)/2⌋ of the rows are set: for an
// even number of rows, the ties. It is one fold for a caller with a tie
// rule of its own (hdc.Rows.Seal), which would otherwise fold twice to
// learn which lanes tie.
//
// It panics if rowWords is not positive, out or eq is not rowWords
// long, idx is empty, or an index does not name a whole row of table.
//
//biohd:hotpath
func MajorityRowsEq(out, eq, table []uint64, idx []int32, rowWords int) {
	if len(eq) != rowWords {
		panic(fmt.Sprintf("bitvec: MajorityRowsEq eq of %d words for %d-word rows", len(eq), rowWords))
	}
	// With the tie mask clear the tie row is never used; eq stands in.
	majorityRows(out, eq, table, idx, rowWords, eq, 0)
}

// majorityRows is both majority folds behind their checks: out under
// tieMask, and eq too where it is not nil.
//
//biohd:hotpath
func majorityRows(out, eq, table []uint64, idx []int32, rowWords int, tie []uint64, tieMask uint64) {
	if rowWords <= 0 || len(out) != rowWords || len(idx) == 0 {
		panic(fmt.Sprintf("bitvec: MajorityRows of %d rows, %d-word rows, out %d words",
			len(idx), rowWords, len(out)))
	}
	if lo, hi := foldExtent(idx); lo < 0 || int(hi) >= len(table)/rowWords {
		panic(fmt.Sprintf("bitvec: MajorityRows row indices [%d,%d] outside a table of %d %d-word rows",
			lo, hi, len(table)/rowWords, rowWords))
	}
	if useAccel && rowWords%kernelBlock == 0 && len(idx) <= foldMaxRows {
		seed := foldSeed(len(idx))
		majorityRowsBlocks(out, eq, table, idx, rowWords, tie, tieMask, &seed)
		return
	}
	majorityRowsGeneric(out, eq, table, idx, rowWords, tie, tieMask)
}

// foldTieMask is all-ones where a fold of n rows takes tied lanes from
// the tie row and zero where it clears them. An odd fold cannot tie:
// ones == ⌊n/2⌋ is a minority there, whatever tieOn says.
func foldTieMask(n int, tieOn bool) uint64 {
	if tieOn && n%2 == 0 {
		return ^uint64(0)
	}
	return 0
}

// foldSeed returns what the vector majority tiers start their eight
// planes from for a fold of n ≤ foldMaxRows rows: plane k of every lane
// is bit k of the bias 127 − ⌊n/2⌋, as an all-ones or all-zero word.
func foldSeed(n int) (seed [8]uint64) {
	bias := uint64(127 - n/2)
	for k := range seed {
		seed[k] = -(bias >> uint(k) & 1)
	}
	return seed
}

// XorRows XORs the rows of table named by idx into out, lane by lane:
// out ^= table[idx[0]] ^ table[idx[1]] ^ … — the parity fold, seeded by
// whatever out holds, so a long fold can be fed in chunks of indices.
//
// It panics if rowWords is not positive, out is not rowWords long, idx
// is empty, or an index does not name a whole row of table.
//
//biohd:hotpath
func XorRows(out, table []uint64, idx []int32, rowWords int) {
	if rowWords <= 0 || len(out) != rowWords || len(idx) == 0 {
		panic(fmt.Sprintf("bitvec: XorRows of %d rows, %d-word rows, out %d words", len(idx), rowWords, len(out)))
	}
	if lo, hi := foldExtent(idx); lo < 0 || int(hi) >= len(table)/rowWords {
		panic(fmt.Sprintf("bitvec: XorRows row indices [%d,%d] outside a table of %d %d-word rows",
			lo, hi, len(table)/rowWords, rowWords))
	}
	if useAccel && rowWords%kernelBlock == 0 {
		xorRowsBlocks(out, table, idx, rowWords)
		return
	}
	xorRowsGeneric(out, table, idx, rowWords)
}

// csa is a carry-save (full) adder over 64 independent bit lanes:
// a + b + c = sum + 2·carry in every lane.
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, a&b | u&c
}

// majorityRowsGeneric is the portable majority tier. It never forms
// per-lane counters: for each word column it counts the one-bits of the
// n rows in all 64 lanes at once, holding the count as bits.Len(n) bit
// planes (plane k is bit k of the 64 lane counts). Rows enter eight at
// a time through a tree of seven carry-save adders that leaves one carry
// word of weight 8, and that word ripples into planes 3 and up until no
// lane carries. The result is the constant compare ones > ⌊n/2⌋; lanes
// with ones == ⌊n/2⌋ take their bit from tie under tieMask, which the
// caller has cleared for odd n, and are stored in eqOut where it is not nil.
func majorityRowsGeneric(out, eqOut, table []uint64, idx []int32, nw int, tie []uint64, tieMask uint64) {
	n := len(idx)
	nPlanes := bits.Len(uint(n))
	half := uint(n / 2)
	// Planes 0–2 stay in registers while rows are added and are parked
	// in planes[:3] for the compare. A count never carries out of plane
	// nPlanes−1, and 64 planes cover every n an int can hold.
	var planes [64]uint64
	high := planes[3:max(nPlanes, 3)]
	for c := 0; c < nw; c++ {
		var p0, p1, p2 uint64
		clear(high)
		j := 0
		for ; j+8 <= n; j += 8 {
			r := idx[j : j+8 : j+8]
			s0, c0 := csa(p0, table[int(r[0])*nw+c], table[int(r[1])*nw+c])
			s1, c1 := csa(s0, table[int(r[2])*nw+c], table[int(r[3])*nw+c])
			s2, c2 := csa(s1, table[int(r[4])*nw+c], table[int(r[5])*nw+c])
			s3, c3 := csa(s2, table[int(r[6])*nw+c], table[int(r[7])*nw+c])
			t0, d0 := csa(p1, c0, c1)
			t1, d1 := csa(t0, c2, c3)
			var carry uint64
			p0, p1 = s3, t1
			p2, carry = csa(p2, d0, d1)
			for k := 0; carry != 0 && k < len(high); k++ {
				high[k], carry = high[k]^carry, high[k]&carry
			}
		}
		for ; j < n; j++ { // the n mod 8 rows left over enter one by one
			carry := table[int(idx[j])*nw+c]
			p0, carry = p0^carry, p0&carry
			p1, carry = p1^carry, p1&carry
			p2, carry = p2^carry, p2&carry
			for k := 0; carry != 0 && k < len(high); k++ {
				high[k], carry = high[k]^carry, high[k]&carry
			}
		}
		planes[0], planes[1], planes[2] = p0, p1, p2
		// ones > half and ones == half, most significant plane first.
		gt, eq := uint64(0), ^uint64(0)
		for k := nPlanes - 1; k >= 0; k-- {
			if half>>uint(k)&1 == 0 {
				gt |= eq & planes[k]
				eq &^= planes[k]
			} else {
				eq &= planes[k]
			}
		}
		if eqOut != nil {
			eqOut[c] = eq
		}
		out[c] = gt | eq&tie[c]&tieMask
	}
}

// xorRowsGeneric is the portable parity tier: rows enter four at a
// time, so out is read and written once per four row words.
func xorRowsGeneric(out, table []uint64, idx []int32, nw int) {
	j := 0
	for ; j+4 <= len(idx); j += 4 {
		r0 := table[int(idx[j])*nw:][:nw]
		r1 := table[int(idx[j+1])*nw:][:nw]
		r2 := table[int(idx[j+2])*nw:][:nw]
		r3 := table[int(idx[j+3])*nw:][:nw]
		for c := range out {
			out[c] ^= r0[c] ^ r1[c] ^ r2[c] ^ r3[c]
		}
	}
	for ; j < len(idx); j++ {
		r := table[int(idx[j])*nw:][:nw]
		for c := range out {
			out[c] ^= r[c]
		}
	}
}

// SlideRows XORs rows a and b of table into out and rotates the sum
// down by one bit, in place: out = ρ⁻¹(out ⊕ table[a] ⊕ table[b]), bit
// i+1 of the sum becoming bit i of out and bit 0 becoming bit D−1. It
// is the one-base step of the exact encoder's binding chain (DESIGN
// §8.1): one pass over out, reading two table rows.
//
// It panics if rowWords is not positive, out is not rowWords long, or
// a or b does not name a whole row of table.
//
//biohd:hotpath
func SlideRows(out, table []uint64, a, b int32, rowWords int) {
	if rowWords <= 0 || len(out) != rowWords {
		panic(fmt.Sprintf("bitvec: SlideRows of %d-word rows, out %d words", rowWords, len(out)))
	}
	if lo, hi := min(a, b), max(a, b); lo < 0 || int(hi) >= len(table)/rowWords {
		panic(fmt.Sprintf("bitvec: SlideRows rows %d and %d outside a table of %d %d-word rows",
			a, b, len(table)/rowWords, rowWords))
	}
	ra, rb := table[int(a)*rowWords:][:rowWords], table[int(b)*rowWords:][:rowWords]
	if useAccel && rowWords%kernelBlock == 0 {
		slideRowsBlocks(out, ra, rb)
		return
	}
	slideRowsGeneric(out, ra, rb)
}

// slideRowsGeneric is the portable slide: word c of out becomes the sum's
// word c shifted down by one, topped by bit 0 of the sum's word c+1 —
// read before it is overwritten — and the last word by bit 0 of the
// first. Four words a step.
func slideRowsGeneric(out, ra, rb []uint64) {
	n := len(out)
	ra, rb = ra[:n], rb[:n]
	first := out[0] ^ ra[0] ^ rb[0]
	cur, c := first, 0
	for ; c+4 < n; c += 4 {
		x1 := out[c+1] ^ ra[c+1] ^ rb[c+1]
		x2 := out[c+2] ^ ra[c+2] ^ rb[c+2]
		x3 := out[c+3] ^ ra[c+3] ^ rb[c+3]
		x4 := out[c+4] ^ ra[c+4] ^ rb[c+4]
		out[c] = cur>>1 | x1<<63
		out[c+1] = x1>>1 | x2<<63
		out[c+2] = x2>>1 | x3<<63
		out[c+3] = x3>>1 | x4<<63
		cur = x4
	}
	for ; c+1 < n; c++ {
		x := out[c+1] ^ ra[c+1] ^ rb[c+1]
		out[c] = cur>>1 | x<<63
		cur = x
	}
	out[n-1] = cur>>1 | first<<63
}

// DepositBits ORs a bit stream into out on the lanes of mask, word by
// word: the lanes set in mask[c] take the next popcount(mask[c]) bits of
// stream, lowest lane first, the stream read from bit 0 of its first
// word on — per word a PDEP of the stream's next bits on mask[c]. The
// three rows are equally long, so the stream never runs out. It is the
// tie pass of hdc.Rows.Seal.
//
// It panics unless out, mask and stream have the same length.
func DepositBits(out, mask, stream []uint64) {
	if useBMI2 && len(mask) > 0 && len(out) == len(mask) && len(stream) == len(mask) {
		depositBitsBMI2(&out[0], &mask[0], &stream[0], len(mask))
		return
	}
	DepositBitsPortable(out, mask, stream)
}

// DepositBitsPortable is DepositBits's portable tier, one tied lane at a
// time — the tier it runs under -tags purego and without a fast PDEP,
// exported so that its callers' tests can hold both tiers to their
// oracles.
func DepositBitsPortable(out, mask, stream []uint64) {
	if len(out) != len(mask) || len(stream) != len(mask) {
		panic(fmt.Sprintf("bitvec: DepositBits into %d words on a %d-word mask from a %d-word stream",
			len(out), len(mask), len(stream)))
	}
	k := 0 // stream bits taken
	for c, m := range mask {
		n := bits.OnesCount64(m)
		if n == 0 {
			continue
		}
		w, s := k/64, uint(k%64)
		v := stream[w] >> s
		if int(s)+n > 64 { // then stream word w+1 exists: k+n ≤ 64·len(stream)
			v |= stream[w+1] << (64 - s)
		}
		k += n
		o := out[c]
		for ; m != 0; m &= m - 1 {
			o |= m & -m & -(v & 1)
			v >>= 1
		}
		out[c] = o
	}
}

// Package bitvec holds the kernels BioHD runs on packed rows: D-bit
// hypervectors stored as D/64 uint64 words, bit i in bit i%64 of word
// i/64, passed as bare []uint64. They are the probe's two scan stages
// (QueryBlock.ScanPlane over a grouped plane, kernel_plane.go, then
// HammingBounded on each survivor's remaining words, kernel.go),
// HammingWords, the popcount hdc.HV scores with, the encoders' row folds
// (kernel_fold.go) and the first lane steps of genome.FindAll
// (kernel_lanes.go), with AVX-512 and AVX2 tiers on amd64, and, below,
// New, which owns the rule that a row is whole words, and RotateWords,
// the rotation hdc.HV permutes with. Operands of a binary kernel must
// have equal word lengths; the kernels panic otherwise.
package bitvec

import "fmt"

// New returns the zeroed words of a d-bit row. It panics unless d is a
// positive multiple of 64: every row is whole words, so that every
// kernel stays word-parallel.
func New(d int) []uint64 {
	if d <= 0 || d%64 != 0 {
		panic(fmt.Sprintf("bitvec: dimension %d must be a positive multiple of 64", d))
	}
	return make([]uint64, d/64)
}

// RotateWords stores src rotated by k bits into dst: bit i of src
// becomes bit (i+k) mod D of dst, D = 64·len(src), so a negative k
// rotates the other way. dst must not alias src unless k ≡ 0 (mod D),
// when the call changes nothing. It panics on empty or mismatched rows
// and on an aliased call with any other k.
func RotateWords(dst, src []uint64, k int) {
	if len(dst) != len(src) || len(src) == 0 {
		panic(fmt.Sprintf("bitvec: rotating a %d-word row into %d words", len(src), len(dst)))
	}
	nw, d := len(src), 64*len(src)
	if k = (k%d + d) % d; &dst[0] == &src[0] {
		if k != 0 {
			panic("bitvec: RotateWords with aliased rows and k ≢ 0 (mod D)")
		}
		return
	}
	// Word j of dst is word s = j − k/64 of src shifted up by k%64, with
	// the carry from the word below s (none when k%64 is 0: a shift by
	// 64 gives 0), word indices taken around the ring.
	wordShift, bitShift := k/64, uint(k%64)
	for j := range dst {
		s := (j - wordShift + nw) % nw
		dst[j] = src[s]<<bitShift | src[(s+nw-1)%nw]>>(64-bitShift)
	}
}

package bitvec

import (
	"fmt"
	"math/bits"
)

// This file holds the single-row kernels: distance routines over the
// packed words of two rows. The associative probe of a BioHD library is
// a fused XNOR+popcount per bucket row, phrased as a Hamming bound so
// that a row is abandoned the moment it can no longer pass. The probe
// runs two kernels: QueryBlock.ScanPlane (kernel_plane.go) over the
// grouped sketch plane, then HammingBounded over the words of each
// survivor's row that the plane does not hold.
//
// On amd64 the bulk of a row runs through the AVX-512 hardware popcount
// or, without it, the AVX2 nibble-LUT popcount (kernel_amd64.s);
// everywhere else, and for tails, a scalar 8-word unrolled loop over
// math/bits.OnesCount64. All tiers give identical results —
// kernel_test.go and kernel_amd64_test.go pin them together. For n-bit
// rows, popcount(XNOR) = n − hamming and dot = n − 2·hamming.

// kernelBlock is the unroll factor of the scalar kernels and the block
// size of the assembly kernel. Eight words (one cache line) per step
// keeps the popcount chain busy while the early-abandon compare runs
// once per line, not once per word.
const kernelBlock = 8

// boundedStride is how many words the bounded scan advances between
// bound checks on the accelerated path. Coarser than the scalar
// kernel's per-line check, because the vector kernel makes whole
// chunks so cheap that checking more often costs more than it saves;
// abandonment stays exact either way (granularity never changes which
// rows pass, only how early a failing row is dropped).
const boundedStride = 8 * kernelBlock

// HammingWords returns the Hamming distance between two equal-length
// packed word slices — the fused XNOR-popcount kernel without a bound.
// It panics on length mismatch.
//
//biohd:hotpath
func HammingWords(a, b []uint64) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("bitvec: word-slice length mismatch %d vs %d", len(a), len(b)))
	}
	if useAccel && len(a) >= kernelBlock {
		nb := len(a) &^ (kernelBlock - 1)
		return hammingBlocks(a[:nb], b[:nb]) + hammingScalar(a[nb:], b[nb:])
	}
	return hammingScalar(a, b)
}

// hammingScalar is the portable unrolled XNOR-popcount loop.
func hammingScalar(a, b []uint64) int {
	d := 0
	i := 0
	for ; i+kernelBlock <= len(a); i += kernelBlock {
		x := a[i : i+kernelBlock : i+kernelBlock]
		y := b[i : i+kernelBlock : i+kernelBlock]
		d += bits.OnesCount64(x[0]^y[0]) + bits.OnesCount64(x[1]^y[1]) +
			bits.OnesCount64(x[2]^y[2]) + bits.OnesCount64(x[3]^y[3]) +
			bits.OnesCount64(x[4]^y[4]) + bits.OnesCount64(x[5]^y[5]) +
			bits.OnesCount64(x[6]^y[6]) + bits.OnesCount64(x[7]^y[7])
	}
	for ; i < len(a); i++ {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// HammingBounded returns the Hamming distance between two equal-length
// packed word slices with early abandonment: as soon as the running
// distance exceeds bound the scan stops and returns (partial, false).
// A (d, true) result means the full distance is d and d ≤ bound.
//
// Abandonment is exact, not approximate — remaining words can only add
// to the distance, so a partial sum above the bound proves the row
// fails. The partial distance returned on abandonment is NOT the full
// distance; callers must only use it as a witness that bound was
// exceeded. A negative bound never passes (distances are ≥ 0).
//
// It panics on length mismatch.
//
//biohd:hotpath
func HammingBounded(a, b []uint64, bound int) (int, bool) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("bitvec: word-slice length mismatch %d vs %d", len(a), len(b)))
	}
	d := 0
	i := 0
	if useAccel {
		for ; i+boundedStride <= len(a); i += boundedStride {
			d += hammingBlocks(a[i:i+boundedStride], b[i:i+boundedStride])
			if d > bound {
				return d, false
			}
		}
	}
	for ; i+kernelBlock <= len(a); i += kernelBlock {
		x := a[i : i+kernelBlock : i+kernelBlock]
		y := b[i : i+kernelBlock : i+kernelBlock]
		d += bits.OnesCount64(x[0]^y[0]) + bits.OnesCount64(x[1]^y[1]) +
			bits.OnesCount64(x[2]^y[2]) + bits.OnesCount64(x[3]^y[3]) +
			bits.OnesCount64(x[4]^y[4]) + bits.OnesCount64(x[5]^y[5]) +
			bits.OnesCount64(x[6]^y[6]) + bits.OnesCount64(x[7]^y[7])
		if d > bound {
			return d, false
		}
	}
	for ; i < len(a); i++ {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	if d > bound {
		return d, false
	}
	return d, true
}

// Kernel names the dispatched kernel tier ("avx512-vpopcnt",
// "avx2-lut", or "scalar"), for benchmark reports.
func Kernel() string {
	return kernelName
}

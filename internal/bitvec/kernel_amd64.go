//go:build amd64 && !purego

package bitvec

// Implemented in kernel_amd64.s.
func hammingAVX2(a, b *uint64, nblocks int) int

//go:noescape
func hammingPopcntAVX512(a, b *uint64, nblocks int) int

//go:noescape
func scanPlaneAVX2(rows *uint64, nrows, nblocks int, q *uint64, bound, first int, out *int32) int

//go:noescape
func scanPlaneAVX512(rows *uint64, ngroups, nblocks int, q *uint64, bound, first int, out *int32) int

//go:noescape
func majorityRowsAVX2(out, table *uint64, idx *int32, n, nblocks int, tie *uint64, tieMask uint64, seed *[8]uint64)

//go:noescape
func majorityRowsAVX512(out, table *uint64, idx *int32, n, nblocks int, tie *uint64, tieMask uint64, seed *[8]uint64)

//go:noescape
func xorRowsAVX512(out, table *uint64, idx *int32, n, nblocks int)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// useAccel is true when the CPU and OS support the AVX2 kernel;
// useAVX512 additionally requires the hardware-popcount tier
// (VPOPCNTQ), which replaces the nibble-LUT popcount with one
// instruction per 64-byte block and roughly quadruples kernel
// throughput. The checks follow the Intel manual: AVX needs OSXSAVE
// plus the OS having enabled XMM and YMM state (XCR0 bits 1 and 2),
// AVX2 is leaf 7 EBX bit 5; the AVX-512 tier further needs opmask and
// ZMM state enabled (XCR0 bits 5–7), AVX512F (leaf 7 EBX bit 16), and
// AVX512VPOPCNTDQ (leaf 7 ECX bit 14).
var useAccel, useAVX512 = detectAccel()

func detectAccel() (avx2ok, avx512ok bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false, false
	}
	lo, _ := xgetbv()
	if lo&0x6 != 0x6 {
		return false, false
	}
	_, b, c7, _ := cpuid(7, 0)
	avx2ok = b&(1<<5) != 0
	const avx512f = 1 << 16
	const vpopcntdq = 1 << 14
	avx512ok = avx2ok && lo&0xe6 == 0xe6 && b&avx512f != 0 && c7&vpopcntdq != 0
	return avx2ok, avx512ok
}

// kernelName names the fastest dispatched kernel tier, for benchmark
// reports.
var kernelName = func() string {
	switch {
	case useAVX512:
		return "avx512-vpopcnt"
	case useAccel:
		return "avx2-lut"
	}
	return "scalar"
}()

// hammingBlocks computes the Hamming distance over the two slices,
// whose length must be a positive multiple of kernelBlock, using the
// best available vector kernel. Callers must check useAccel first.
func hammingBlocks(a, b []uint64) int {
	if useAVX512 {
		return hammingPopcntAVX512(&a[0], &b[0], len(a)/kernelBlock)
	}
	return hammingAVX2(&a[0], &b[0], len(a)/kernelBlock)
}

// planeGroup is how many rows the AVX-512 range kernel takes per step.
const planeGroup = 8

// scanPlaneBlocks runs the best available range kernel over rows, which
// holds whole rows of nblocks kernel blocks each, the first of them row
// index first of its plane. Passing row indices go to out; it returns
// how many it wrote and how many leading rows it scanned — the AVX-512
// tier takes whole groups of planeGroup rows and leaves the remainder
// to the caller. Callers must check useAccel and the operand lengths
// first.
func scanPlaneBlocks(rows []uint64, nblocks int, q []uint64, bound, first int, out []int32) (n, done int) {
	nrows := len(rows) / (nblocks * kernelBlock)
	if !useAVX512 {
		return scanPlaneAVX2(&rows[0], nrows, nblocks, &q[0], bound, first, &out[0]), nrows
	}
	groups := nrows / planeGroup
	if groups == 0 {
		return 0, 0
	}
	return scanPlaneAVX512(&rows[0], groups, nblocks, &q[0], bound, first, &out[0]), groups * planeGroup
}

// majorityRowsBlocks runs the best available vector majority fold; see
// MajorityRows for the operands and kernel_amd64.s for the seeded
// planes. Callers must check useAccel, that rowWords is a whole number
// of kernel blocks, len(idx) ≤ foldMaxRows and every index first.
func majorityRowsBlocks(out, table []uint64, idx []int32, rowWords int, tie []uint64, tieMask uint64, seed *[8]uint64) {
	if useAVX512 {
		majorityRowsAVX512(&out[0], &table[0], &idx[0], len(idx), rowWords/kernelBlock, &tie[0], tieMask, seed)
		return
	}
	majorityRowsAVX2(&out[0], &table[0], &idx[0], len(idx), rowWords/kernelBlock, &tie[0], tieMask, seed)
}

// xorRowsBlocks runs the vector parity fold, under the same
// preconditions as majorityRowsBlocks (any number of rows). There is no
// AVX2 parity tier — it measured 1.95× the portable tier at D = 8192,
// W = 32, under the 2× a tier has to earn (DESIGN.md §16) — so a host
// without AVX-512 folds through the portable tier here.
func xorRowsBlocks(out, table []uint64, idx []int32, rowWords int) {
	if !useAVX512 {
		xorRowsGeneric(out, table, idx, rowWords)
		return
	}
	xorRowsAVX512(&out[0], &table[0], &idx[0], len(idx), rowWords/kernelBlock)
}

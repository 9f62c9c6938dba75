//go:build amd64 && !purego

package bitvec

// Implemented in kernel_amd64.s.
func hammingAVX2(a, b *uint64, nblocks int) int

//go:noescape
func hammingPopcntAVX512(a, b *uint64, nblocks int) int

//go:noescape
func scanGroupsAVX2(plane *uint64, ngroups, w int, q *uint64, k, bound, first int, rows, dists *int32, n *[MaxMultiQueries]int, used int, spill *[planeGroup]uint64, qstride int) int

//go:noescape
func scanGroupsAVX512(plane *uint64, ngroups, w int, q *uint64, k, bound, first int, rows, dists *int32, n *[MaxMultiQueries]int, used int) int

//go:noescape
func majorityRowsAVX2(out, table *uint64, idx *int32, n, nblocks int, tie *uint64, tieMask uint64, seed *[8]uint64, eq *uint64)

//go:noescape
func majorityRowsAVX512(out, table *uint64, idx *int32, n, nblocks int, tie *uint64, tieMask uint64, seed *[8]uint64, eq *uint64)

//go:noescape
func xorRowsAVX512(out, table *uint64, idx *int32, n, nblocks int)

//go:noescape
func slideRowsAVX512(out, ra, rb *uint64, nblocks int)

//go:noescape
func depositBitsBMI2(out, mask, stream *uint64, n int)

//go:noescape
func laneMatchAVX512(words *uint64, ngroups int, key uint64, blocks *int32, masks *uint64, room int) (groups, n, cmps int)

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

// useBMI2 is true when DepositBits runs on PDEP: BMI2 (leaf 7 EBX bit
// 8) and POPCNT (leaf 1 ECX bit 23), except on AMD family 17h, whose
// PDEP is microcoded at a cost that grows with the mask's set bits and
// loses to the portable loop.
var useBMI2 = detectBMI2()

func detectBMI2() bool {
	maxLeaf, vb, vc, vd := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	a1, _, c1, _ := cpuid(1, 0)
	_, b7, _, _ := cpuid(7, 0)
	family := a1 >> 8 & 0xf
	if family == 0xf {
		family += a1 >> 20 & 0xff
	}
	amd := vb == 0x68747541 && vd == 0x69746e65 && vc == 0x444d4163 // "AuthenticAMD"
	return b7&(1<<8) != 0 && c1&(1<<23) != 0 && !(amd && family == 0x17)
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

// scanGroups runs the best available group tier of the range kernel;
// see groupScan. The vector tiers read the queries from b.words and
// write survivors straight into b's rooms, at ScanRoom entries a query
// (scanRoomBytes in kernel_amd64.s).
func scanGroups(b *QueryBlock, plane []uint64, g0, ngroups, bound int) int {
	switch {
	case useAVX512:
		return scanGroupsAVX512Block(b, plane, g0, ngroups, bound)
	case useAccel:
		return scanGroupsAVX2Block(b, plane, g0, ngroups, bound)
	}
	return scanGroupsGeneric(b, plane, g0, ngroups, bound)
}

// scanGroupsAVX512Block and scanGroupsAVX2Block are the vector group
// tiers behind their argument set-up.
func scanGroupsAVX512Block(b *QueryBlock, plane []uint64, g0, ngroups, bound int) int {
	first := g0 * planeGroup
	return scanGroupsAVX512(&plane[first*b.w], ngroups, b.w, &b.words()[0], b.k, bound, first, &b.rows[0], &b.dists[0], &b.n, b.used())
}

func scanGroupsAVX2Block(b *QueryBlock, plane []uint64, g0, ngroups, bound int) int {
	first := g0 * planeGroup
	return scanGroupsAVX2(&plane[first*b.w], ngroups, b.w, &b.words()[0], b.k, bound, first, &b.rows[0], &b.dists[0], &b.n, b.used(), &b.spill, 8*queryStride(b.k))
}

// majorityRowsBlocks runs the best available vector majority fold; see
// majorityRows for the operands and kernel_amd64.s for the seeded
// planes. Callers must check useAccel, that rowWords is a whole number
// of kernel blocks, len(idx) ≤ foldMaxRows and every index first.
func majorityRowsBlocks(out, eq, table []uint64, idx []int32, rowWords int, tie []uint64, tieMask uint64, seed *[8]uint64) {
	var eqp *uint64
	if eq != nil {
		eqp = &eq[0]
	}
	if useAVX512 {
		majorityRowsAVX512(&out[0], &table[0], &idx[0], len(idx), rowWords/kernelBlock, &tie[0], tieMask, seed, eqp)
		return
	}
	majorityRowsAVX2(&out[0], &table[0], &idx[0], len(idx), rowWords/kernelBlock, &tie[0], tieMask, seed, eqp)
}

// xorRowsBlocks runs the vector parity fold, under the same
// preconditions as majorityRowsBlocks (any number of rows). There is no
// AVX2 parity tier — it measured 1.95× the portable tier at D = 8192,
// W = 32, under the 2× a tier has to earn (DESIGN.md §8.2) — so a host
// without AVX-512 folds through the portable tier here.
func xorRowsBlocks(out, table []uint64, idx []int32, rowWords int) {
	if !useAVX512 {
		xorRowsGeneric(out, table, idx, rowWords)
		return
	}
	xorRowsAVX512(&out[0], &table[0], &idx[0], len(idx), rowWords/kernelBlock)
}

// slideRowsBlocks runs the vector slide on rows of whole kernel blocks;
// see SlideRows. There is no AVX2 tier, so a host without AVX-512 slides
// through the portable tier here. Callers must check useAccel and that
// the rows are whole blocks.
func slideRowsBlocks(out, ra, rb []uint64) {
	if !useAVX512 {
		slideRowsGeneric(out, ra, rb)
		return
	}
	slideRowsAVX512(&out[0], &ra[0], &rb[0], len(out)/kernelBlock)
}

// laneMatchBlocks runs the AVX-512 lane-match kernel over ngroups
// groups; see LaneMatch. There is no AVX2 tier, so a host without
// AVX-512 scans nothing here. Callers must check useAccel, that words
// holds ngroups·LaneGroup + 1 words, ngroups ≥ 1, and room for
// LaneGroup survivors.
func laneMatchBlocks(words []uint64, ngroups int, key uint64, blocks []int32, masks []uint64) (groups, n, cmps int) {
	if !useAVX512 {
		return 0, 0, 0
	}
	return laneMatchAVX512(&words[0], ngroups, key, &blocks[0], &masks[0], min(len(blocks), len(masks)))
}

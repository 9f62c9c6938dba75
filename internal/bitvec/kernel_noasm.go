//go:build !amd64 || purego

package bitvec

// useAccel is false on platforms without an assembly kernel; every
// distance runs through the portable scalar loops.
const useAccel = false

const kernelName = "scalar"

// useMulti8 mirrors kernel_amd64.go; without an assembly kernel there
// is no eight-wide fused pass.
const useMulti8 = false

func hammingBlocks(a, b []uint64) int {
	panic("bitvec: hammingBlocks without an accelerated kernel")
}

func hammingMulti4Blocks(row, q0, q1, q2, q3 []uint64, sums *[4]int64) {
	panic("bitvec: hammingMulti4Blocks without an accelerated kernel")
}

func hammingMulti8Blocks(row []uint64, qs [][]uint64, lo, hi int, sums *[8]int64) {
	panic("bitvec: hammingMulti8Blocks without an accelerated kernel")
}

func scanPlaneBlocks(rows []uint64, nblocks int, q []uint64, bound, first int, out []int32) (n, done int) {
	panic("bitvec: scanPlaneBlocks without an accelerated kernel")
}

func majorityRowsBlocks(out, table []uint64, idx []int32, rowWords int, tie []uint64, tieMask uint64, seed *[8]uint64) {
	panic("bitvec: majorityRowsBlocks without an accelerated kernel")
}

func xorRowsBlocks(out, table []uint64, idx []int32, rowWords int) {
	panic("bitvec: xorRowsBlocks without an accelerated kernel")
}

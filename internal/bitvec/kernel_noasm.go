//go:build !amd64 || purego

package bitvec

// useAccel is false on platforms without an assembly kernel; every
// distance runs through the portable scalar loops.
const useAccel = false

const kernelName = "scalar"

func hammingBlocks(a, b []uint64) int {
	panic("bitvec: hammingBlocks without an accelerated kernel")
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

//go:build !amd64 || purego

package bitvec

// useAccel is false on platforms without an assembly kernel; every
// distance runs through the portable scalar loops.
const useAccel = false

const kernelName = "scalar"

func hammingBlocks(a, b []uint64) int {
	panic("bitvec: hammingBlocks without an accelerated kernel")
}

// scanGroups is the portable group tier.
func scanGroups(b *QueryBlock, plane []uint64, g0, ngroups, bound int) int {
	return scanGroupsGeneric(b, plane, g0, ngroups, bound)
}

func majorityRowsBlocks(out, table []uint64, idx []int32, rowWords int, tie []uint64, tieMask uint64, seed *[8]uint64) {
	panic("bitvec: majorityRowsBlocks without an accelerated kernel")
}

func xorRowsBlocks(out, table []uint64, idx []int32, rowWords int) {
	panic("bitvec: xorRowsBlocks without an accelerated kernel")
}

func laneMatchBlocks(words []uint64, ngroups int, key uint64, blocks []int32, masks []uint64) (groups, n, cmps int) {
	panic("bitvec: laneMatchBlocks without an accelerated kernel")
}

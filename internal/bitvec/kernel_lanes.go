package bitvec

// This file holds the lane-match kernel: the first steps of a
// lane-parallel exact match over a text packed 32 two-bit symbols to a
// word (genome.FindAll). Block q tests the 32 offsets starting at
// symbol 32q, offset 32q+i in the 2-bit lane i of a live mask (bit 2i);
// step j reads the text from 32q+j as words[q]>>2j | words[q+1]<<(64−2j),
// XORs it with pattern symbol j broadcast to every lane (its value
// times 0x5555…) and clears the lanes that differ: m &^= x | x>>1.
//
// On amd64 with AVX-512 VPOPCNTDQ the kernel takes eight blocks — 256
// offsets — per step, and hands back only the blocks that still have a
// live lane after LaneSteps steps: on random text about one group in
// 250. Everywhere else it scans nothing and the caller runs every block
// through its scalar loop. kernel_lanes_test.go pins it to a Go
// reference of the same steps.

const (
	// LaneGroup is how many blocks LaneMatch takes per step.
	LaneGroup = 8
	// LaneSteps is how many lane steps LaneMatch runs on every block.
	LaneSteps = 8
)

// LaneMatch runs lane steps 0 … LaneSteps−1 on whole groups of
// LaneGroup blocks from the front of words, each block starting with
// every lane live, where key holds the pattern's symbols 0 … LaneSteps−1
// in its low bits, symbol j at bits 2j and 2j+1. Block q reads words[q]
// and words[q+1], so len(words)−1 blocks can be scanned; it reads no
// word past len(words). For every scanned block with a live lane left
// it writes the block's index to blocks and its live mask to masks, in
// ascending block order; it stops before a group whose survivors might
// not fit in min(len(blocks), len(masks)).
//
// It returns how many groups it scanned, how many survivors it wrote
// and Σ popcount(m) over every scanned block and every step — the mask
// after the step, so a step taken after a block's mask is 0 adds 0.
// It scans nothing (0, 0, 0) without the AVX-512 tier, on fewer than
// LaneGroup + 1 words, or with room for fewer than LaneGroup survivors.
//
//biohd:hotpath
func LaneMatch(words []uint64, key uint64, blocks []int32, masks []uint64) (groups, n, cmps int) {
	ngroups := (len(words) - 1) / LaneGroup
	if !useAccel || ngroups <= 0 || min(len(blocks), len(masks)) < LaneGroup {
		return 0, 0, 0
	}
	return laneMatchBlocks(words[:ngroups*LaneGroup+1], ngroups, key, blocks, masks)
}

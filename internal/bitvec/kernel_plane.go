package bitvec

import "fmt"

// This file holds the range kernel: one query against a run of
// consecutive rows of a contiguous plane, with the row loop inside the
// kernel. The per-row kernels in kernel.go cost one call — and on amd64
// one Go→assembly transition and one horizontal reduction — per row;
// for the narrow rows of a sketch plane (a few cache lines each) that
// overhead rivals the popcount itself. Here the caller hands over a
// whole tile of rows and gets back only the indices of the rows that
// passed, which at a selective bound is a small fraction of them.
//
// On amd64 with AVX-512 VPOPCNTDQ rows are taken eight at a time: each
// 64-byte query block is loaded into a register once per group and
// XNOR-popcounted against the matching block of all eight rows, the
// eight accumulators collapse through a log-depth shuffle tree into one
// vector of eight distances, and one vector compare yields the group's
// pass mask — no per-row reduction and no per-row branch. The AVX2 tier
// loops rows with the nibble-LUT popcount. Everywhere else, for widths
// that are not whole kernel blocks, and for the rows left over after
// the last full group, each row goes through HammingBounded. All tiers
// report the same rows — kernel_plane_test.go pins them to HammingWords
// row by row.

// ScanPlane scans rows [lo, hi) of plane — consecutive rows of w words
// each — against q and writes the index of every row whose Hamming
// distance to q is at most bound into out, in ascending order. It
// returns how many indices it wrote. A negative bound passes no row.
//
// It panics if w is not positive, len(q) != w, the range does not lie
// inside the plane, or out holds fewer than hi−lo entries.
//
//biohd:hotpath
func ScanPlane(plane []uint64, w int, q []uint64, bound, lo, hi int, out []int32) int {
	if w <= 0 || len(q) != w || lo < 0 || hi < lo || hi > len(plane)/w || len(out) < hi-lo {
		panic(fmt.Sprintf("bitvec: ScanPlane rows [%d,%d) of %d-word rows over %d plane words, query %d words, out %d",
			lo, hi, w, len(plane), len(q), len(out)))
	}
	if bound < 0 || lo == hi {
		return 0
	}
	n := 0
	if useAccel && w%kernelBlock == 0 {
		var done int
		n, done = scanPlaneBlocks(plane[lo*w:hi*w], w/kernelBlock, q, bound, lo, out)
		lo += done
	}
	for i := lo; i < hi; i++ {
		if _, ok := HammingBounded(plane[i*w:(i+1)*w], q, bound); ok {
			out[n] = int32(i)
			n++
		}
	}
	return n
}

package bitvec

// This file holds the query-block width the probe paths size their
// blocks by, and HammingMulti, which scores one row against such a
// block. A probe block runs no kernel of its own: it scans the plane
// with ScanPlane once per query of the block, tile by tile, while each
// tile is hot in cache (DESIGN.md §9).

// MaxMultiQueries is the widest query block a probe scans together
// (core.BlockWidth). Per query, a block of eight costs about half a
// solo probe on the scan_exact_wire geometry (DESIGN.md §18).
const MaxMultiQueries = 8

// HammingMulti computes dist[i] = HammingWords(row, qs[i]) for every
// query in the block. It panics if a query's word length differs from
// the row's or dist is shorter than the block. No probe path calls it;
// it is the compute ceiling bench/ times per query.
func HammingMulti(row []uint64, qs [][]uint64, dist []int) {
	for i, q := range qs {
		dist[i] = HammingWords(row, q)
	}
}

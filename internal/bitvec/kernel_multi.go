package bitvec

// This file holds the query-block width the probe paths size their
// blocks by, and HammingMulti, which scores one row against such a
// block. A probe block is scanned by QueryBlock.ScanPlane, which reads
// the plane once for all of the block's queries (DESIGN.md §7.5).

// MaxMultiQueries is the widest query block a probe scans together
// (core.BlockWidth). Per query, a block of eight costs about half a
// solo probe on the scan_exact_wire geometry (DESIGN.md §7.5).
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

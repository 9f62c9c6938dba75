package bitvec

import "fmt"

// This file holds the multi-query probe kernels: distance routines that
// score ONE bucket row against a BLOCK of query vectors in a single
// pass over the row. The single-query kernels in kernel.go stream the
// whole arena once per query, so Q concurrent queries cost Q full
// memory sweeps; here the row is read once per block and re-scored
// against every query while its words are still hot in cache, which is
// exactly the multi-pattern amortization the BioHD/GenieHD accelerators
// get from broadcasting one reference stream to many pattern rows.
//
// The row is consumed in chunks of boundedStride words. On amd64 with
// AVX2 each chunk runs through a fused four-query kernel
// (hammingMulti4AVX2 in kernel_amd64.s) that loads the row's vectors
// once per 64-byte block and XNOR-popcounts them against four query
// streams; everywhere else, and for tails, the scalar unrolled loop
// from kernel.go runs per query while the chunk sits in L1. Both
// produce identical distances — kernel_multi_test.go pins them to the
// single-query kernels bit for bit.
//
// Early abandonment stays per query: each query carries its own bound
// and drops out of the live mask the moment its running distance
// exceeds it. A chunk is skipped entirely once every query in it is
// dead, so the bounded multi scan does no more word reads than the
// worst surviving query needs. Abandonment is exact, exactly as in
// HammingBounded: granularity changes which words are touched, never
// which queries pass.

// MaxMultiQueries is the widest query block the multi-query kernels
// accept per call. Eight queries keep the per-chunk bookkeeping in one
// byte-sized live mask while the per-row amortization is already within
// a few percent of its asymptote.
const MaxMultiQueries = 8

// multiGroup is the fusion width of the accelerated multi-query pass:
// the AVX2 kernel interleaves four query streams against one row load,
// which is as many byte accumulators as the sixteen vector registers
// hold alongside the row, table, and scratch. Blocks wider than
// multiGroup run as consecutive groups over the same (cache-hot) chunk.
const multiGroup = 4

// multiStride is how many words the bounded multi-query scan advances
// between bound checks. Twice the single-query boundedStride: the fused
// kernels pay a fixed setup-and-reduce cost per call (zeroing and
// collapsing one accumulator register per query), so the multi path
// wants longer chunks to amortize it; at the default geometry one
// stride covers a whole 8192-bit row. Abandonment stays exact — only
// how early a failing query drops out changes, never which queries
// pass.
const multiStride = 2 * boundedStride

// checkMultiOperands validates one multi-query call: every query must
// have the row's word length and the block must fit the kernel limits.
// It panics on violation, mirroring the single-query kernels.
func checkMultiOperands(row []uint64, qs [][]uint64, bounds, dist []int) {
	if len(qs) > MaxMultiQueries {
		panic(fmt.Sprintf("bitvec: query block %d exceeds MaxMultiQueries %d", len(qs), MaxMultiQueries))
	}
	if len(bounds) < len(qs) || len(dist) < len(qs) {
		panic(fmt.Sprintf("bitvec: bounds/dist (%d/%d) shorter than query block %d",
			len(bounds), len(dist), len(qs)))
	}
	for i := range qs {
		if len(qs[i]) != len(row) {
			panic(fmt.Sprintf("bitvec: query %d word-slice length mismatch %d vs row %d",
				i, len(qs[i]), len(row)))
		}
	}
}

// HammingMulti computes dist[i] = Hamming(row, qs[i]) for every query
// in the block (up to MaxMultiQueries), streaming row once. It panics
// if any query's word length differs from the row's or dist is shorter
// than the block.
//
//biohd:hotpath
func HammingMulti(row []uint64, qs [][]uint64, dist []int) {
	var bounds [MaxMultiQueries]int
	if len(qs) > MaxMultiQueries {
		panic(fmt.Sprintf("bitvec: query block %d exceeds MaxMultiQueries %d", len(qs), MaxMultiQueries))
	}
	full := 64 * len(row)
	for i := range qs {
		bounds[i] = full // never abandons: every distance is ≤ 64·words
	}
	HammingMultiBounded(row, qs, bounds[:len(qs)], dist)
}

// HammingMultiBounded scores one row against a block of queries with
// per-query early abandonment. bounds[i] is query i's maximum passing
// distance; the returned mask has bit i set iff query i completed with
// dist[i] ≤ bounds[i], in which case dist[i] is the exact full Hamming
// distance. For queries whose bit is clear, dist[i] is only a witness
// that the bound was exceeded (a partial sum, not the full distance).
// A negative bound never passes.
//
// The scan reads row once, chunk by chunk; queries leave the live mask
// as their bounds are exceeded, and the scan stops early once the mask
// empties. It panics on length mismatch or an oversized block.
//
//biohd:hotpath
func HammingMultiBounded(row []uint64, qs [][]uint64, bounds, dist []int) uint32 {
	checkMultiOperands(row, qs, bounds, dist)
	nq := len(qs)
	if nq == 0 {
		return 0
	}
	// Every query starts live except those whose (negative) bound can
	// never pass.
	live := uint32(1)<<uint(nq) - 1
	for i := 0; i < nq; i++ {
		dist[i] = 0
		if bounds[i] < 0 {
			live &^= 1 << uint(i)
		}
	}
	n := len(row)
	pos := 0
	// Whole chunks of multiStride words, then one shorter chunk of the
	// remaining whole kernel blocks, then the word tail.
	for pos+multiStride <= n && live != 0 {
		live = hammingMultiChunk(row, qs, pos, pos+multiStride, bounds, dist, live)
		pos += multiStride
	}
	if nb := (n - pos) &^ (kernelBlock - 1); nb > 0 && live != 0 {
		live = hammingMultiChunk(row, qs, pos, pos+nb, bounds, dist, live)
		pos += nb
	}
	if pos < n && live != 0 {
		for i := 0; i < nq; i++ {
			if live&(1<<uint(i)) == 0 {
				continue
			}
			dist[i] += hammingScalar(row[pos:], qs[i][pos:])
			if dist[i] > bounds[i] {
				live &^= 1 << uint(i)
			}
		}
	}
	return live
}

// hammingMultiChunk advances every live query over row[lo:hi] (a
// positive multiple of kernelBlock words) and returns the updated live
// mask. On the AVX-512 tier a block wider than multiGroup runs through
// the eight-wide fused kernel in a single call; otherwise queries run
// in fused groups of multiGroup against one pass over the chunk, with
// group slots beyond the block repeating the group's first query and
// ignored, and a lone query dropping to the cheaper single-stream
// kernel. The scalar path loops queries over the chunk while it is
// L1-resident.
func hammingMultiChunk(row []uint64, qs [][]uint64, lo, hi int, bounds, dist []int, live uint32) uint32 {
	nq := len(qs)
	r := row[lo:hi:hi]
	if useMulti8 && nq > multiGroup {
		var sums [MaxMultiQueries]int64
		hammingMulti8Blocks(row, qs, lo, hi, &sums)
		for i := 0; i < nq; i++ {
			if live&(1<<uint(i)) == 0 {
				continue
			}
			dist[i] += int(sums[i])
			if dist[i] > bounds[i] {
				live &^= 1 << uint(i)
			}
		}
		return live
	}
	if useAccel {
		var sums [multiGroup]int64
		for g := 0; g < nq; g += multiGroup {
			gn := nq - g
			if gn > multiGroup {
				gn = multiGroup
			}
			if live>>uint(g)&(1<<uint(gn)-1) == 0 {
				continue // whole group already over bound
			}
			q0 := qs[g][lo:hi:hi]
			if gn == 1 {
				sums[0] = int64(hammingBlocks(r, q0))
			} else {
				q1, q2, q3 := q0, q0, q0
				if gn > 1 {
					q1 = qs[g+1][lo:hi:hi]
				}
				if gn > 2 {
					q2 = qs[g+2][lo:hi:hi]
				}
				if gn > 3 {
					q3 = qs[g+3][lo:hi:hi]
				}
				hammingMulti4Blocks(r, q0, q1, q2, q3, &sums)
			}
			for j := 0; j < gn; j++ {
				i := g + j
				if live&(1<<uint(i)) == 0 {
					continue
				}
				dist[i] += int(sums[j])
				if dist[i] > bounds[i] {
					live &^= 1 << uint(i)
				}
			}
		}
		return live
	}
	for i := 0; i < nq; i++ {
		if live&(1<<uint(i)) == 0 {
			continue
		}
		dist[i] += hammingScalar(r, qs[i][lo:hi:hi])
		if dist[i] > bounds[i] {
			live &^= 1 << uint(i)
		}
	}
	return live
}

package bitvec

import (
	"fmt"
	"math/bits"
)

// This file holds the probe's range kernel and the plane layout it
// reads. A plane is n rows of w words stored in groups of planeGroup
// rows interleaved by word: word j of the group's eight rows fill one
// 64-byte line, so a line is one word of every row of the group. The
// rows after the last full group (fewer than eight) follow row-major.
// Only this package knows the layout: GroupRows and GroupInPlace build
// it from row-major words, PlaneRow gathers one row back out, and
// UngroupRows hands the rows back row-major for a file.
//
// The kernel takes a whole query block (QueryBlock) and reads a range
// of the plane once for all of its queries. On amd64 with AVX-512
// VPOPCNTDQ each line is loaded once; for every query it is XORed with
// that query's word j (broadcast), popcounted and added into the
// query's accumulator — which then holds eight rows' distances, one a
// lane, with no reduction tree — and one VPCMPQ per (group, query)
// yields the rows that pass. The AVX2 tier walks a group's lines once
// per query with the nibble-LUT popcount, the group still in L1. The
// portable tier does the same in Go, and scores the rows of a partial
// group and the row-major tail everywhere. All tiers report the same
// rows and distances — kernel_plane_test.go pins them to HammingWords.

// planeGroup is how many rows a group interleaves: one 64-byte line
// holds one word of each.
const planeGroup = 8

// ScanRoom is how many survivors a QueryBlock holds per query. The
// kernel stops before a group that could overflow a query's room, so a
// scan of a plane that passes more rows than this takes several calls.
const ScanRoom = 512

// groupedRows is how many of n rows lie in whole groups — the index of
// the first tail row.
func groupedRows(n int) int { return n &^ (planeGroup - 1) }

// GroupRows writes the first w words of every row of src — row-major,
// srcWords words a row — into dst in the plane layout. dst holds
// len(src)/srcWords rows of w words and must not overlap src. It
// panics if w is not in [1, srcWords] or the lengths disagree.
func GroupRows(dst, src []uint64, srcWords, w int) {
	if w <= 0 || srcWords < w || len(src)%srcWords != 0 || len(dst) != len(src)/srcWords*w {
		panic(fmt.Sprintf("bitvec: GroupRows of %d words in %d-word rows into %d words of %d-word rows",
			len(src), srcWords, len(dst), w))
	}
	n := len(src) / srcWords
	full := groupedRows(n)
	for g := 0; g < full; g += planeGroup {
		var rows [planeGroup][]uint64
		for r := range rows {
			at := (g + r) * srcWords
			rows[r] = src[at : at+w : at+w]
		}
		grp := dst[g*w : (g+planeGroup)*w]
		for j := 0; j < w; j++ {
			line := grp[j*planeGroup : j*planeGroup+planeGroup : j*planeGroup+planeGroup]
			line[0], line[1], line[2], line[3] = rows[0][j], rows[1][j], rows[2][j], rows[3][j]
			line[4], line[5], line[6], line[7] = rows[4][j], rows[5][j], rows[6][j], rows[7][j]
		}
	}
	for i := full; i < n; i++ {
		copy(dst[i*w:(i+1)*w], src[i*srcWords:])
	}
}

// GroupInPlace rewrites row-major rows of w words into the plane
// layout in place, one group at a time through a buffer of one group.
// It panics if w is not positive or words is not whole rows.
func GroupInPlace(words []uint64, w int) {
	if w <= 0 || len(words)%w != 0 {
		panic(fmt.Sprintf("bitvec: GroupInPlace of %d words in %d-word rows", len(words), w))
	}
	gw := planeGroup * w
	buf := make([]uint64, gw)
	for g := 0; g+gw <= len(words); g += gw {
		copy(buf[:gw], words[g:g+gw])
		GroupRows(words[g:g+gw], buf[:gw], w, w)
	}
}

// PlaneRow gathers row i of the plane of w-word rows into dst[:w] and
// returns it. It panics if the row is not in the plane or dst is
// shorter than w.
func PlaneRow(dst, plane []uint64, w, i int) []uint64 {
	if w <= 0 || i < 0 || (i+1)*w > len(plane) || len(dst) < w {
		panic(fmt.Sprintf("bitvec: PlaneRow %d of %d-word rows over %d words into %d", i, w, len(plane), len(dst)))
	}
	dst = dst[:w]
	if i >= groupedRows(len(plane)/w) {
		copy(dst, plane[i*w:(i+1)*w])
		return dst
	}
	base := i&^(planeGroup-1)*w + i&(planeGroup-1)
	for j := range dst {
		dst[j] = plane[base+j*planeGroup]
	}
	return dst
}

// SetPlaneRow scatters row's first w words into row i of the plane. It
// panics if the row is not in the plane or row is shorter than w.
func SetPlaneRow(plane []uint64, w, i int, row []uint64) {
	if w <= 0 || i < 0 || (i+1)*w > len(plane) || len(row) < w {
		panic(fmt.Sprintf("bitvec: SetPlaneRow %d of %d-word rows over %d words from %d", i, w, len(plane), len(row)))
	}
	row = row[:w]
	if i >= groupedRows(len(plane)/w) {
		copy(plane[i*w:(i+1)*w], row)
		return
	}
	base := i&^(planeGroup-1)*w + i&(planeGroup-1)
	for j, x := range row {
		plane[base+j*planeGroup] = x
	}
}

// UngroupRows hands the plane's rows to emit row-major, in order: each
// group through a buffer of one group, and the tail rows as they are
// stored. Each call of emit gets whole rows, valid until emit returns.
// It panics if w is not positive or the plane is not whole rows.
func UngroupRows(plane []uint64, w int, emit func(rows []uint64)) {
	if w <= 0 || len(plane)%w != 0 {
		panic(fmt.Sprintf("bitvec: UngroupRows of %d words in %d-word rows", len(plane), w))
	}
	gw := planeGroup * w
	buf := make([]uint64, gw)
	full := groupedRows(len(plane)/w) * w
	for g := 0; g < full; g += gw {
		grp := plane[g : g+gw]
		for j := 0; j < w; j++ {
			line := grp[j*planeGroup : j*planeGroup+planeGroup : j*planeGroup+planeGroup]
			buf[j], buf[w+j], buf[2*w+j], buf[3*w+j] = line[0], line[1], line[2], line[3]
			buf[4*w+j], buf[5*w+j], buf[6*w+j], buf[7*w+j] = line[4], line[5], line[6], line[7]
		}
		emit(buf)
	}
	if full < len(plane) {
		emit(plane[full:])
	}
}

// QueryBlock is the range kernel's state for one block of up to
// MaxMultiQueries queries: the queries, and each query's survivors of
// the last scan. It is scratch — one per caller, reused block after
// block; ScanPlane allocates nothing.
type QueryBlock struct {
	w, k   int
	qs     [MaxMultiQueries][]uint64 // the queries as added (caller-owned)
	qi     []uint64                  // the vector tiers' copy: word j of query q at qi[j·queryStride(k)+q]
	packed bool                      // qi holds the queries added since Reset
	n      [MaxMultiQueries]int      // survivors of each query in the last scan
	rows   []int32                   // query q's survivors at [q·ScanRoom, q·ScanRoom+n[q])
	dists  []int32                   // and their distances
	spill  [planeGroup]uint64        // the AVX2 tier's eight distances of one group
}

// NewQueryBlock returns a query block for planes of at most maxWords
// words a row.
func NewQueryBlock(maxWords int) *QueryBlock {
	return &QueryBlock{
		qi:    make([]uint64, planeGroup*maxWords),
		rows:  make([]int32, MaxMultiQueries*ScanRoom),
		dists: make([]int32, MaxMultiQueries*ScanRoom),
	}
}

// Reset empties the block for queries of w words. It panics if w is not
// positive or exceeds the block's width.
func (b *QueryBlock) Reset(w int) {
	if w <= 0 || planeGroup*w > len(b.qi) {
		panic(fmt.Sprintf("bitvec: %d-word queries in a block of at most %d", w, len(b.qi)/planeGroup))
	}
	clear(b.qs[:b.k])
	b.w, b.k, b.packed = w, 0, false
}

// Width is the word width of the block's queries.
func (b *QueryBlock) Width() int { return b.w }

// Add appends q's first w words to the block as its next query. It
// panics if the block is full or q is shorter than w. The block keeps
// q until the next Reset.
func (b *QueryBlock) Add(q []uint64) {
	if b.k == MaxMultiQueries || len(q) < b.w {
		panic(fmt.Sprintf("bitvec: query %d of %d words in a block of %d-word queries", b.k, len(q), b.w))
	}
	b.qs[b.k] = q[:b.w]
	b.k++
	b.packed = false
}

// queryStride is the stride at which the vector tiers read k queries'
// words: the power of two at or above k, so the kernel's address scale
// can step it.
func queryStride(k int) int {
	s := 1
	for s < k {
		s *= 2
	}
	return s
}

// words returns the queries as the vector tiers read them: word j of
// query q at j·queryStride(k) + q. One query is read where it lies.
func (b *QueryBlock) words() []uint64 {
	if b.k == 1 {
		return b.qs[0]
	}
	if !b.packed {
		s := queryStride(b.k)
		for q, qw := range b.qs[:b.k] {
			for j, x := range qw {
				b.qi[j*s+q] = x
			}
		}
		b.packed = true
	}
	return b.qi
}

// Hits returns query q's survivors of the last ScanPlane — row indices
// in ascending order and their distances — valid until the next scan.
func (b *QueryBlock) Hits(q int) (rows, dists []int32) {
	lo := q * ScanRoom
	return b.rows[lo : lo+b.n[q]], b.dists[lo : lo+b.n[q]]
}

// ScanPlane scans rows [lo, hi) of plane — the plane layout, rows of
// the block's width — once for every query of the block, keeping each
// row whose Hamming distance to a query is at most bound as one of that
// query's Hits, with the distance. It scans until the range ends or a
// query's room could overflow, and returns the row it stopped at: hi
// once the range is done, else the row a further call resumes from. A
// negative bound passes no row.
//
// It panics if the block is empty or the range does not lie inside the
// plane.
//
//biohd:hotpath
func (b *QueryBlock) ScanPlane(plane []uint64, bound, lo, hi int) int {
	return b.scan(plane, bound, lo, hi, scanGroups)
}

// groupScan is one tier's loop over whole groups: it scans groups
// [g0, g0+ngroups) of plane for every query of b, appending survivors,
// and returns how many groups it scanned — all of them, unless a
// query's room ran short first.
type groupScan func(b *QueryBlock, plane []uint64, g0, ngroups, bound int) int

// scan is ScanPlane over a given group tier, which tests name directly.
func (b *QueryBlock) scan(plane []uint64, bound, lo, hi int, groups groupScan) int {
	w := b.w
	if b.k == 0 || lo < 0 || hi < lo || hi > len(plane)/w {
		panic(fmt.Sprintf("bitvec: ScanPlane rows [%d,%d) of %d-word rows over %d plane words, %d queries",
			lo, hi, w, len(plane), b.k))
	}
	clear(b.n[:b.k])
	if bound < 0 {
		return hi
	}
	full := min(groupedRows(len(plane)/w), hi)
	i := lo
	for i < hi {
		if b.used() > ScanRoom-planeGroup {
			return i
		}
		if i%planeGroup == 0 && i+planeGroup <= full {
			g := (full - i) / planeGroup
			i += planeGroup * groups(b, plane, i/planeGroup, g, bound)
			continue
		}
		end := min(hi, i&^(planeGroup-1)+planeGroup)
		b.scanRows(plane, i, end, bound)
		i = end
	}
	return hi
}

// used is the most survivors any query of the block holds.
func (b *QueryBlock) used() int {
	m := 0
	for _, n := range b.n[:b.k] {
		m = max(m, n)
	}
	return m
}

// keep appends row i at distance d to query q's survivors.
func (b *QueryBlock) keep(q, i, d int) {
	at := q*ScanRoom + b.n[q]
	b.rows[at], b.dists[at] = int32(i), int32(d)
	b.n[q]++
}

// scanRows scores rows [lo, hi) — the rows of one partial group, or
// the row-major tail — one row at a time.
func (b *QueryBlock) scanRows(plane []uint64, lo, hi, bound int) {
	w := b.w
	full := groupedRows(len(plane) / w)
	for i := lo; i < hi; i++ {
		if i >= full {
			row := plane[i*w : (i+1)*w]
			for q, qw := range b.qs[:b.k] {
				if d, ok := HammingBounded(row, qw, bound); ok {
					b.keep(q, i, d)
				}
			}
			continue
		}
		base := i&^(planeGroup-1)*w + i&(planeGroup-1)
		for q, qw := range b.qs[:b.k] {
			d := 0
			for j, x := range qw {
				d += bits.OnesCount64(plane[base+j*planeGroup] ^ x)
			}
			if d <= bound {
				b.keep(q, i, d)
			}
		}
	}
}

// scanGroupsGeneric is the portable group tier: for each group and
// query, eight running distances over the group's lines.
func scanGroupsGeneric(b *QueryBlock, plane []uint64, g0, ngroups, bound int) int {
	gw := planeGroup * b.w
	for g := 0; g < ngroups; g++ {
		if b.used() > ScanRoom-planeGroup {
			return g
		}
		first := (g0 + g) * planeGroup
		grp := plane[first*b.w : first*b.w+gw]
		for q := 0; q < b.k; q++ {
			var d [planeGroup]int
			qw := b.qs[q]
			for j := 0; j < len(grp); j += planeGroup {
				x := qw[j/planeGroup]
				line := grp[j : j+planeGroup : j+planeGroup]
				d[0] += bits.OnesCount64(line[0] ^ x)
				d[1] += bits.OnesCount64(line[1] ^ x)
				d[2] += bits.OnesCount64(line[2] ^ x)
				d[3] += bits.OnesCount64(line[3] ^ x)
				d[4] += bits.OnesCount64(line[4] ^ x)
				d[5] += bits.OnesCount64(line[5] ^ x)
				d[6] += bits.OnesCount64(line[6] ^ x)
				d[7] += bits.OnesCount64(line[7] ^ x)
			}
			for r, dr := range d {
				if dr <= bound {
					b.keep(q, first+r, dr)
				}
			}
		}
	}
	return ngroups
}

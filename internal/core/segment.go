package core

import (
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/hdc"
)

// This file and snapshot.go are the only places allowed to touch the
// raw segment storage (the bkts slice and the packed arena) — everything
// else goes through the accessor methods below, so a segment published
// in a snapshot is provably never written again. The biohdlint
// snapshotsafety analyzer enforces the boundary.

// bucket is one library hypervector plus the windows superposed in it.
// Buckets never count: the binary majority is all search needs, and the
// builder takes it from the members' rows.
type bucket struct {
	row     []uint64    // the sealed words in the builder; nil until sealed, and in a segment, whose arena holds them
	windows []WindowRef // members, in insertion order
}

// segment is one immutable sealed slice of the library: a run of closed
// buckets, their window metadata, and the probe's storage of every
// bucket's sealed hypervector. Once a segment is published in a
// snapshot nothing in it is ever mutated again — Remove touches no
// segment, and Compact replaces the whole segment.
type segment struct {
	bkts     []bucket
	arena    []uint64 // nBuckets × rowWords sealed words, row-major; nil where the plane holds the rows
	rowWords int      // D/64, or the sketch width where a row is its sketch (Library.rowWords)
	total    int      // member windows, including tombstoned ones
	maxOcc   int      // largest bucket occupancy, tombstoned windows included

	// plane is what the probe's first stage streams: the first
	// planeWords words of every row, in bitvec's grouped plane layout
	// (nBuckets × planeWords). Only bitvec reads its layout; here rows
	// come out of it through planeRow. Where the plane is as wide as
	// the rows — a library whose model offers no prefix, or one whose
	// rows are their sketches — a heap segment holds the rows in the
	// plane alone and has no arena; a mapped one cuts a heap plane from
	// the mapping, as every segment with a narrower sketch does.
	// Whether a probe bounds it by the sketch stage is the view's call
	// (scanPlan.sketch).
	plane      []uint64
	planeWords int

	// groups is the routing table of an exact library's segment (DESIGN
	// §8.6): group g's full buckets are [groups[g−1], groups[g]) (from 0
	// for g = 0), and the spill — every bucket after the last group —
	// holds the windows no group filled a bucket with. nil where the
	// segment is not routed: then all of it is spill, and every probe
	// scans it whole.
	groups []int32
}

// newSegment seals a bucket slice into a segment: every sealed row is
// packed into one contiguous store — the arena, or the plane where the
// plane is as wide as the rows — and the bucket keeps only its windows.
// groups is the routing table (nil: unrouted). The bucket structs are
// owned by the segment after this call.
func newSegment(bkts []bucket, groups []int32, rowWords, sketchWords int) *segment {
	s := &segment{bkts: bkts, rowWords: rowWords, groups: groups}
	rows := make([]uint64, len(bkts)*rowWords)
	for i := range s.bkts {
		if sketchWords == rowWords {
			bitvec.SetPlaneRow(rows, rowWords, i, s.bkts[i].row)
		} else {
			copy(rows[i*rowWords:(i+1)*rowWords], s.bkts[i].row)
		}
		s.bkts[i].row = nil
		s.countBucket(i)
	}
	if sketchWords == rowWords {
		s.plane, s.planeWords = rows, rowWords
	} else {
		s.arena = rows
		s.cutPlane(sketchWords)
	}
	return s
}

// countBucket adds bucket i's windows to the segment's totals.
func (s *segment) countBucket(i int) {
	n := len(s.bkts[i].windows)
	s.total += n
	if n > s.maxOcc {
		s.maxOcc = n
	}
}

// cutPlane derives the plane from the arena's leading words. It only
// reads the arena, so it is safe on a read-only mapping; a mapped open
// pays one pass over each arena's leading words for it.
func (s *segment) cutPlane(sketchWords int) {
	s.planeWords = sketchWords
	s.plane = make([]uint64, len(s.bkts)*sketchWords)
	bitvec.GroupRows(s.plane, s.arena, s.rowWords, sketchWords)
}

// segmentFromArena builds a segment around an existing packed arena —
// the v3 load path, where the arena words alias either the heap memory
// the file was read into or, where mapped is set, a read-only mapping
// (never written: immutable once published). wins[i] becomes bucket i's
// member windows and groups the routing table. Where the plane is as
// wide as the rows, heap words are regrouped in place into the plane,
// one group at a time; nothing else is copied. len(arena) must be
// len(wins)·rowWords and groups monotone within len(wins) — the v3
// reader validates both before calling.
func segmentFromArena(arena []uint64, wins [][]WindowRef, groups []int32, rowWords, sketchWords int, mapped bool) *segment {
	s := &segment{
		bkts:     make([]bucket, len(wins)),
		rowWords: rowWords,
		groups:   groups,
	}
	for i := range s.bkts {
		s.bkts[i].windows = wins[i]
		s.countBucket(i)
	}
	if sketchWords == rowWords && !mapped {
		bitvec.GroupInPlace(arena, rowWords)
		s.plane, s.planeWords = arena, rowWords
		return s
	}
	s.arena = arena
	s.cutPlane(sketchWords)
	return s
}

// stored exposes the rows for serialization (shared; callers must not
// mutate): the arena, or the plane where it holds the rows, which
// grouped says — the v3 writer then stores them row-major again.
func (s *segment) stored() (words []uint64, grouped bool) {
	if s.arena == nil {
		return s.plane, true
	}
	return s.arena, false
}

// arenaRow returns bucket i's packed words inside the arena. The full
// slice expression caps the row so an overrunning kernel cannot creep
// into the next bucket.
func (s *segment) arenaRow(i int) []uint64 {
	lo := i * s.rowWords
	hi := lo + s.rowWords
	return s.arena[lo:hi:hi]
}

// planeRow gathers bucket i's words in the plane into dst and returns
// them.
func (s *segment) planeRow(dst []uint64, i int) []uint64 {
	return bitvec.PlaneRow(dst, s.plane, s.planeWords, i)
}

// NumBuckets and MemoryBytes make a segment an engine Segment.
func (s *segment) NumBuckets() int { return len(s.bkts) }

// windows returns the member windows of local bucket i (shared slice;
// callers must not mutate).
func (s *segment) windows(i int) []WindowRef { return s.bkts[i].windows }

// vector returns whole-row bucket i's sealed hypervector: the arena row
// itself (callers must not mutate; a whole-word row is never masked),
// or where the plane holds the rows, the row gathered into dst — a new
// vector if dst is nil.
func (s *segment) vector(i int, dst *hdc.HV) *hdc.HV {
	if s.arena != nil {
		return hdc.HVFromArenaRow(s.arenaRow(i), 64*s.rowWords)
	}
	if dst == nil {
		dst = hdc.NewHV(64 * s.rowWords)
	}
	s.planeRow(dst.Words(), i)
	return dst
}

// maxOccupancy returns the largest bucket occupancy in the segment,
// counting tombstoned windows too — they are still superposed in the
// vectors, so they still contribute noise.
func (s *segment) maxOccupancy() int { return s.maxOcc }

// sketchBytes is the size of the plane where it is a copy beside an
// arena; 0 where it holds the rows.
func (s *segment) sketchBytes() int64 {
	if s.arena == nil {
		return 0
	}
	return int64(len(s.plane)) * 8
}

// MemoryBytes returns the segment's resident hypervector storage: the
// packed rows (8·rowWords bytes per bucket), the plane where it is a
// copy, and the window metadata (8 bytes per memorized window).
func (s *segment) MemoryBytes() int64 {
	return int64(len(s.arena)+len(s.plane))*8 + int64(s.total)*8
}

// route returns the full buckets [lo, hi) of the group a window routed
// by key is stored in, if it is not in the spill: the buckets from the
// last group's end on. An unrouted segment (nil groups) is all spill.
func (s *segment) route(key uint64) (lo, hi int) {
	n := len(s.groups)
	if n == 0 {
		return 0, 0
	}
	g := groupOf(key, n)
	if g > 0 {
		lo = int(s.groups[g-1])
	}
	return lo, int(s.groups[g])
}

// blockOrder names a whole query block's queries in order: the spill's
// and a full scan's query list.
var blockOrder = [BlockWidth]int{0, 1, 2, 3, 4, 5, 6, 7}

// probeBlockRange scores the segment's buckets against a whole query
// block, appending each query's candidates (with global bucket indices:
// local index + gOff) to dsts and adding the buckets it scored for
// query j to scored[j]. qb holds the block's queries, hvs, at the
// plane's width. With keys (an exact library's lookups) query j scores
// only where its window can be stored: its group's full buckets, which
// the queries routed to one group scan together through sub, and the
// spill, which the whole block scans at once; without keys (approximate
// libraries, and probes given a hypervector rather than a window), or
// in an unrouted segment, the block scans every bucket. The probe is a
// cascade: the range kernel reads the plane once per range for its
// queries — under the view's stage-1 bound, or under the full-row bound
// where the plan has no sketch stage — and hands back each query's
// survivors with their distances, and confirm turns those into
// candidates.
//
//biohd:hotpath
func (s *segment) probeBlockRange(dsts [][]Candidate, hvs []*hdc.HV, keys []uint64, scored []int, pl *scanPlan, gOff int, qb, sub *bitvec.QueryBlock, ctr *libCounters) {
	if q := hvs[0].Words(); qb.Width() != s.planeWords || !pl.oneStage && len(q) != s.rowWords {
		panic(fmt.Sprintf("core: %d-word queries of %d words against %d-word rows under a %d-word plane",
			qb.Width(), len(q), s.rowWords, s.planeWords))
	}
	n := s.NumBuckets()
	spill, survivors, cands := 0, 0, 0
	var rows int64
	if keys != nil && len(s.groups) > 0 {
		spill = int(s.groups[len(s.groups)-1])
		var done [BlockWidth]bool
		var idx [BlockWidth]int
		for j := range hvs {
			if done[j] {
				continue
			}
			lo, hi := s.route(keys[j])
			sub.Reset(qb.Width())
			m := 0
			for i := j; i < len(hvs); i++ {
				if !done[i] && (i == j || groupOf(keys[i], len(s.groups)) == groupOf(keys[j], len(s.groups))) {
					done[i] = true
					sub.Add(hvs[i].Words())
					idx[m] = i
					m++
					scored[i] += hi - lo
				}
			}
			sv, cd := s.scanRange(dsts, hvs, idx[:m], sub, lo, hi, pl, gOff)
			survivors, cands = survivors+sv, cands+cd
			rows += int64(m) * int64(hi-lo)
		}
	}
	sv, cd := s.scanRange(dsts, hvs, blockOrder[:len(hvs)], qb, spill, n, pl, gOff)
	survivors, cands = survivors+sv, cands+cd
	rows += int64(len(hvs)) * int64(n-spill)
	for j := range hvs {
		scored[j] += n - spill
	}
	// One atomic publish per segment keeps the scan synchronization-free.
	// Abandoned counts (row, query) pairs scored that did not become
	// candidates, whichever stage dropped them; the sketch counters only
	// run where there is a sketch stage to monitor.
	if abandoned := rows - int64(cands); abandoned > 0 {
		ctr.earlyAbandons.Add(abandoned)
	}
	if pl.sketch {
		ctr.sketchRows.Add(rows)
		ctr.sketchSurvivors.Add(int64(survivors))
	}
}

// scanRange scans buckets [lo, hi) for the queries of qb, which are
// hvs[idx[0]], hvs[idx[1]], …, in order, and confirms each one's
// survivors into its dst. The kernel stops when a query's survivors
// fill qb's room; the loop confirms them and resumes. It returns the
// stage-1 survivors and the candidates it added.
func (s *segment) scanRange(dsts [][]Candidate, hvs []*hdc.HV, idx []int, qb *bitvec.QueryBlock, lo, hi int, pl *scanPlan, gOff int) (survivors, cands int) {
	for lo < hi {
		lo = qb.ScanPlane(s.plane, pl.sketchBound, lo, hi)
		for m, j := range idx {
			rows, dists := qb.Hits(m)
			before := len(dsts[j])
			dsts[j] = s.confirm(dsts[j], hvs[j].Words(), rows, dists, pl, gOff)
			survivors += len(rows)
			cands += len(dsts[j]) - before
		}
	}
	return survivors, cands
}

// confirm appends the candidates among one query's stage-1 survivors —
// local rows with their distances d₁ over the plane's words — to dst.
// Under a one-stage plan they are the candidates, scored over the
// plane. Otherwise a survivor is held to the threshold's full-row
// Hamming bound maxHam: stage 2 reads only the words of its arena row
// that stage 1 did not, under maxHam − d₁ — so d₁ + d₂ ≤ maxHam exactly
// when the whole row passes — and none where the plane is the whole
// row.
func (s *segment) confirm(dst []Candidate, q []uint64, rows, dists []int32, pl *scanPlan, gOff int) []Candidate {
	w := s.planeWords
	if pl.oneStage {
		for j, i := range rows {
			dst = append(dst, Candidate{Bucket: gOff + int(i), Score: float64(64*w - 2*int(dists[j]))})
		}
		return dst
	}
	for j, i := range rows {
		h := int(dists[j])
		if w < s.rowWords {
			d2, ok := bitvec.HammingBounded(s.arenaRow(int(i))[w:], q[w:], pl.maxHam-h)
			if !ok {
				continue
			}
			h += d2
		}
		dst = append(dst, Candidate{Bucket: gOff + int(i), Score: float64(64*s.rowWords - 2*h)})
	}
	return dst
}

// tieSeedMix derives the seed of a library's tie-break stream from its
// Params.Seed; the stream restarts for every bucket.
const tieSeedMix = 0x5ea1

// builder is the library's Builder: a segment that is still accepting
// windows — the active one, or one compaction is filling. It is only
// ever touched under the engine's mutation lock; readers see it through
// the isolated copy View publishes into each snapshot.
//
// It routes each window to a group by its key — an exact library's
// l.groups groups (DESIGN §8.6), an approximate library's one — and
// bundles by row fold: a group's open bucket waits in the builder's
// table of open rows, and their majority is taken when the bucket
// fills, a full bucket of that group. What the groups still hold open
// when a view is taken is bundled into the spill, folded out of the
// same table. The table has room for every group's open bucket, G·C
// rows, but a sealed bucket's rows are free for the next windows of
// any group, most recently freed first: the rows in use stay about the
// windows open (≈ G·C/2), so a build touches about half the table's
// pages, and writes to rows a fold has just read.
type builder struct {
	l       *Library
	groups  []group
	windows int       // windows memorized
	rows    *hdc.Rows // the open rows, G·C of them; nil until needed
	free    []int32   // rows of sealed buckets, to be reused last-freed first
	used    int32     // rows ever used; the table's rows past it are untouched
	hv      *hdc.HV   // Append's window encoding
	acc     *hdc.Acc  // the approximate encoder's scratch; nil in exact mode
}

// group is one routing group of a builder: its full buckets in the
// order they filled, and its open bucket — the windows, when each was
// memorized (the builder's window count after it), and its rows.
type group struct {
	full []bucket
	open []WindowRef
	seq  []int
	rows []int32
}

// insert memorizes one encoded window in the group key routes it to,
// sealing the group's open bucket into a full one when it reaches
// capacity. At capacity 1 hv's first rowWords words are the bucket:
// nothing to fold. Full buckets are immutable from here on, which is
// what lets View share them with published snapshots.
func (b *builder) insert(key uint64, ref WindowRef, hv *hdc.HV) {
	gi := groupOf(key, len(b.groups))
	g := &b.groups[gi]
	b.windows++
	c := b.l.params.Capacity
	if c <= 1 {
		g.full = append(g.full, bucket{row: slices.Clone(hv.Words()[:b.l.rowWords]), windows: []WindowRef{ref}})
		return
	}
	if b.rows == nil {
		b.rows = hdc.NewRows(b.l.ties, len(b.groups)*c)
	}
	if g.open == nil {
		g.open = make([]WindowRef, 0, c)
	}
	row := b.used
	if n := len(b.free); n > 0 {
		row, b.free = b.free[n-1], b.free[:n-1]
	} else {
		b.used++
	}
	b.rows.Put(int(row), hv)
	g.open = append(g.open, ref)
	g.seq = append(g.seq, b.windows)
	g.rows = append(g.rows, row)
	if len(g.open) == c {
		g.full = append(g.full, bucket{row: b.rows.Seal(g.rows).Words(), windows: g.open})
		b.free = append(b.free, g.rows...)
		g.open, g.seq, g.rows = nil, g.seq[:0], g.rows[:0]
	}
}

// numBuckets is how many buckets the builder's view holds: every C
// windows fill one, wherever they are routed.
func (b *builder) numBuckets() int {
	c := max(b.l.params.Capacity, 1)
	return (b.windows + c - 1) / c
}

// View is Builder.View: a read-only copy of the builder as a segment, or
// nil if the builder is empty; sealing the builder is taking its view
// and then discarding it. The segment holds every group's full buckets,
// group by group — shared with the copy outright, being immutable — and
// then the spill: the windows the groups hold open, bundled C at a time
// in the order they were memorized into buckets of the view's own. So a
// view holds ⌈windows/C⌉ buckets, and one where no group filled a bucket
// is laid out as if nothing were routed. The open buckets stay for the
// next insert; the arena is fresh per view, so packing the rows into it
// never touches builder state.
func (b *builder) View() Segment {
	if b.windows == 0 {
		return nil
	}
	bkts := make([]bucket, 0, b.numBuckets())
	var ends []int32
	if b.l.groups > 0 {
		ends = make([]int32, len(b.groups))
	}
	for g := range b.groups {
		bkts = append(bkts, b.groups[g].full...)
		if ends != nil {
			ends[g] = int32(len(bkts))
		}
	}
	return newSegment(b.appendSpill(bkts), ends, b.l.rowWords, b.l.sketchWords)
}

// appendSpill bundles the windows open in the groups into buckets of C,
// in the order they were memorized, and appends them to bkts.
func (b *builder) appendSpill(bkts []bucket) []bucket {
	// Each open window's seq in the high half of a key and its place
	// in wins and rows in the low half: sorting the keys orders them.
	var keys []uint64
	var wins []WindowRef
	var rows []int32
	for _, g := range b.groups {
		for j, seq := range g.seq {
			keys = append(keys, uint64(seq)<<32|uint64(len(wins)))
			wins, rows = append(wins, g.open[j]), append(rows, g.rows[j])
		}
	}
	slices.Sort(keys)
	c := b.l.params.Capacity
	fold := make([]int32, 0, c)
	for lo := 0; lo < len(keys); lo += c {
		part := keys[lo:min(lo+c, len(keys))]
		members := make([]WindowRef, len(part))
		fold = fold[:0]
		for i, k := range part {
			at := uint32(k)
			members[i] = wins[at]
			fold = append(fold, rows[at])
		}
		bkts = append(bkts, bucket{row: b.rows.Seal(fold).Words(), windows: members})
	}
	return bkts
}

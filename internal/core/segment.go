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

	// mapOff and mapLen locate an arena that aliases a read-only file
	// mapping (format v3 opened with MapArena) instead of heap storage —
	// mapLen is 0 on the heap — so the library lifecycle can madvise it
	// (DONTNEED once compaction retires the segment). Mapped arenas
	// must never be written — the pages fault on write — which the
	// immutable-once-published discipline above already guarantees.
	mapOff int
	mapLen int
}

// newSegment seals a bucket slice into a segment: every sealed row is
// packed into one contiguous store — the arena, or the plane where the
// plane is as wide as the rows — and the bucket keeps only its windows.
// The bucket structs are owned by the segment after this call.
func newSegment(bkts []bucket, rowWords, sketchWords int) *segment {
	s := &segment{bkts: bkts, rowWords: rowWords}
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
// (the loader then records its byte range). wins[i] becomes bucket i's
// member windows. Where the plane is as wide as the rows, heap words
// are regrouped in place into the plane, one group at a time; nothing
// else is copied. len(arena) must be len(wins)·rowWords — the v3 reader
// validates this against the segment directory, whose row width it is,
// before calling.
func segmentFromArena(arena []uint64, wins [][]WindowRef, rowWords, sketchWords int, mapped bool) *segment {
	s := &segment{
		bkts:     make([]bucket, len(wins)),
		rowWords: rowWords,
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

// MapRange reports the arena's byte range inside the library's file
// mapping to the engine; (0, 0) on the heap.
func (s *segment) MapRange() (off, n int) { return s.mapOff, s.mapLen }

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

// probeBlockRange scans every bucket of the segment against a whole
// query block, appending each query's candidates (with global bucket
// indices: local index + gOff) to dsts. qb holds the block's queries,
// hvs, at the plane's width. The probe is a cascade: the range kernel
// reads the plane once for the whole block — under the view's stage-1
// bound, or under the full-row bound where the plan has no sketch stage
// — and hands back each query's survivors with their distances, and
// confirm turns those into candidates. The kernel stops when a query's
// survivors fill qb's room; the loop confirms them and resumes.
//
//biohd:hotpath
func (s *segment) probeBlockRange(dsts [][]Candidate, hvs []*hdc.HV, pl *scanPlan, gOff int, qb *bitvec.QueryBlock, ctr *libCounters) {
	// One storage-tier tally per segment scan (not per row) — same
	// publish cadence as the counters below.
	if s.mapLen > 0 {
		ctr.mappedScans.Add(1)
	} else {
		ctr.heapScans.Add(1)
	}
	if q := hvs[0].Words(); qb.Width() != s.planeWords || !pl.oneStage && len(q) != s.rowWords {
		panic(fmt.Sprintf("core: %d-word queries of %d words against %d-word rows under a %d-word plane",
			qb.Width(), len(q), s.rowWords, s.planeWords))
	}
	n := s.NumBuckets()
	survivors, cands := 0, 0
	for lo := 0; lo < n; {
		lo = qb.ScanPlane(s.plane, pl.sketchBound, lo, n)
		for j, hv := range hvs {
			rows, dists := qb.Hits(j)
			before := len(dsts[j])
			dsts[j] = s.confirm(dsts[j], hv.Words(), rows, dists, pl, gOff)
			survivors += len(rows)
			cands += len(dsts[j]) - before
		}
	}
	// One atomic publish per segment keeps the scan synchronization-free.
	// Abandoned counts (row, query) pairs that did not become candidates,
	// whichever stage dropped them; the sketch counters only run where
	// there is a sketch stage to monitor.
	rows := int64(n) * int64(len(hvs))
	if abandoned := rows - int64(cands); abandoned > 0 {
		ctr.earlyAbandons.Add(abandoned)
	}
	if pl.sketch {
		ctr.sketchRows.Add(rows)
		ctr.sketchSurvivors.Add(int64(survivors))
	}
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
// It bundles by row fold: the open bucket's encodings wait in rows — one
// buffer, reused bucket after bucket — and their majority is taken when
// the bucket closes or a view is published.
type builder struct {
	l    *Library
	bkts []bucket
	rows *hdc.Rows // the open bucket's members
}

// insert memorizes one encoded window, opening a new bucket (and closing
// the previous one) whenever the open bucket reaches capacity. At
// capacity 1 hv's first rowWords words are the bucket: nothing to fold.
func (b *builder) insert(ref WindowRef, hv *hdc.HV) {
	c := b.l.params.Capacity
	if c <= 1 {
		b.bkts = append(b.bkts, bucket{row: slices.Clone(hv.Words()[:b.l.rowWords]), windows: []WindowRef{ref}})
		return
	}
	if n := len(b.bkts); n == 0 || len(b.bkts[n-1].windows) >= c {
		if n > 0 {
			b.sealBucket(n - 1)
		}
		b.bkts = append(b.bkts, bucket{})
		if b.rows == nil {
			b.rows = hdc.NewRows(b.l.ties)
		}
	}
	b.rows.Add(hv)
	bk := &b.bkts[len(b.bkts)-1]
	bk.windows = append(bk.windows, ref)
}

// sealBucket binarizes the open bucket i. Closed buckets are immutable
// from here on, which is what lets View share them with published
// snapshots.
func (b *builder) sealBucket(i int) {
	b.bkts[i].row = b.rows.Seal().Words()
	b.rows.Reset()
}

func (b *builder) numBuckets() int { return len(b.bkts) }

// View is Builder.View: a read-only copy of the builder as a segment, or
// nil if the builder is empty; sealing the builder is taking its view
// and then discarding it. Closed buckets are immutable and shared with the
// copy outright; the open bucket — the only one future inserts mutate,
// and never one at capacity 1 — is isolated: its window slice is capped
// at the current length and its row is freshly sealed — a fold of the
// waiting rows, which stay for the next insert. The arena is fresh per
// view, so packing the copies' rows into it never touches builder
// state.
func (b *builder) View() Segment {
	if len(b.bkts) == 0 {
		return nil
	}
	bkts := make([]bucket, len(b.bkts))
	copy(bkts, b.bkts)
	if open := &bkts[len(bkts)-1]; open.row == nil { // insert closes a bucket only by opening the next
		open.windows = open.windows[:len(open.windows):len(open.windows)]
		open.row = b.rows.Seal().Words()
	}
	return newSegment(bkts, b.l.rowWords, b.l.sketchWords)
}

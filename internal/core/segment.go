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
// buckets, their window metadata, and a flat probe arena holding every
// bucket's sealed hypervector back-to-back. Once a segment is published
// in a snapshot nothing in it is ever mutated again — Remove touches no
// segment, and Compact replaces the whole segment.
type segment struct {
	bkts     []bucket
	arena    []uint64 // nBuckets × rowWords sealed words, contiguous
	rowWords int      // D/64, or the sketch width where a row is its sketch (Library.rowWords)
	total    int      // member windows, including tombstoned ones
	maxOcc   int      // largest bucket occupancy, tombstoned windows included

	// plane is the sketch plane the probe's first stage streams: the
	// first planeWords words of every arena row, packed contiguously
	// (nBuckets × planeWords). It is derived from the arena whenever a
	// segment is built or opened, never stored in a file, and immutable
	// like the arena. Where the rows are as wide as the plane — a
	// library whose model offers no prefix, or one whose rows are their
	// sketches — there is no copy: the plane aliases the arena. Whether
	// a probe streams it is the view's call
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
// packed into one contiguous arena, which vector(i), WriteToV3 and the
// probe kernel all read, and the bucket keeps only its windows. The
// bucket structs are owned by the segment after this call.
func newSegment(bkts []bucket, rowWords, sketchWords int) *segment {
	s := &segment{bkts: bkts, rowWords: rowWords}
	s.arena = make([]uint64, len(bkts)*s.rowWords)
	for i := range s.bkts {
		copy(s.arenaRow(i), s.bkts[i].row)
		s.bkts[i].row = nil
		s.countBucket(i)
	}
	s.cutPlane(sketchWords)
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

// cutPlane derives the sketch plane from the arena. It only reads the
// arena, so it is safe on a read-only mapping; a mapped open pays one
// pass over each arena's leading words for it.
func (s *segment) cutPlane(sketchWords int) {
	s.planeWords = sketchWords
	if sketchWords == s.rowWords {
		s.plane = s.arena
		return
	}
	s.plane = make([]uint64, len(s.bkts)*sketchWords)
	for i := range s.bkts {
		copy(s.plane[i*sketchWords:(i+1)*sketchWords], s.arenaRow(i))
	}
}

// segmentFromArena builds a segment around an existing packed arena —
// the v3 load path, where the arena words alias either the heap memory
// the file was read into or a read-only mapping (the loader then marks
// the segment mapped and records its byte range). wins[i] becomes
// bucket i's member windows; nothing is copied. len(arena) must be
// len(wins)·rowWords — the v3 reader validates this against the segment
// directory, whose row width it is, before calling.
func segmentFromArena(arena []uint64, wins [][]WindowRef, rowWords, sketchWords int) *segment {
	s := &segment{
		bkts:     make([]bucket, len(wins)),
		arena:    arena,
		rowWords: rowWords,
	}
	for i := range s.bkts {
		s.bkts[i].windows = wins[i]
		s.countBucket(i)
	}
	s.cutPlane(sketchWords)
	return s
}

// MapRange reports the arena's byte range inside the library's file
// mapping to the engine; (0, 0) on the heap.
func (s *segment) MapRange() (off, n int) { return s.mapOff, s.mapLen }

// arenaWords exposes the full packed arena for serialization (shared;
// callers must not mutate). The v3 writer streams this straight to the
// file — rows are already contiguous in bucket order.
func (s *segment) arenaWords() []uint64 { return s.arena }

// arenaRow returns bucket i's packed words inside the arena. The full
// slice expression caps the row so an overrunning kernel cannot creep
// into the next bucket.
func (s *segment) arenaRow(i int) []uint64 {
	lo := i * s.rowWords
	hi := lo + s.rowWords
	return s.arena[lo:hi:hi]
}

// planeRow returns bucket i's words in the sketch plane.
func (s *segment) planeRow(i int) []uint64 {
	return s.plane[i*s.planeWords : (i+1)*s.planeWords]
}

// NumBuckets and MemoryBytes make a segment an engine Segment.
func (s *segment) NumBuckets() int { return len(s.bkts) }

// windows returns the member windows of local bucket i (shared slice;
// callers must not mutate).
func (s *segment) windows(i int) []WindowRef { return s.bkts[i].windows }

// vector returns whole-row bucket i's sealed hypervector, aliasing the
// arena row (callers must not mutate; a whole-word row is never masked).
func (s *segment) vector(i int) *hdc.HV { return hdc.HVFromArenaRow(s.arenaRow(i), 64*s.rowWords) }

// maxOccupancy returns the largest bucket occupancy in the segment,
// counting tombstoned windows too — they are still superposed in the
// vectors, so they still contribute noise.
func (s *segment) maxOccupancy() int { return s.maxOcc }

// sketchBytes is the size of the sketch plane where it is a copy; 0
// where it aliases the arena.
func (s *segment) sketchBytes() int64 {
	if s.planeWords == s.rowWords {
		return 0
	}
	return int64(len(s.plane)) * 8
}

// MemoryBytes returns the segment's resident hypervector storage: the
// packed arena (8·rowWords bytes per bucket), the sketch plane where it
// is a copy, and the window metadata (8 bytes per memorized window).
func (s *segment) MemoryBytes() int64 {
	return int64(len(s.arena))*8 + s.sketchBytes() + int64(s.total)*8
}

// planeTileBytes sizes the tiles the probe walks a sketch plane in: a
// tile of plane rows is scanned once per query of a block before the
// scan moves on, so it has to stay in the L1 data cache beside the
// block's query prefixes for every query after the first to read it
// from there. planeTileMax — a tile of the narrowest sketch — caps the
// rows per tile, which is what sizes the survivor scratch.
const (
	planeTileBytes = 32 << 10
	planeTileMax   = planeTileBytes / (8 * sketchLine)
)

// scanned is what the first stage of a probe under pl streams: the
// sketch plane and its row width, or the arena where the plan (or the
// library) has no sketch stage.
func (s *segment) scanned(pl *scanPlan) (plane []uint64, words int) {
	if pl.sketch {
		return s.plane, s.planeWords
	}
	return s.arena, s.rowWords
}

// tileRows is the number of rows per probe tile: as many rows of the
// given width as fit planeTileBytes, in whole groups of the range
// kernel's eight.
func tileRows(words int) int {
	n := planeTileBytes / (8 * words) &^ 7
	return min(max(n, 8), planeTileMax)
}

// probeRange scans local buckets [lo, hi) — at most len(surv) of them —
// against one query, appending candidates to dst with global bucket
// indices (local index + gOff), and reports how many rows survived the
// sketch stage. The probe is a cascade: the range kernel streams the
// rows' sketch-plane prefixes under the view's stage-1 bound — or, under
// a plan without a sketch stage, the rows themselves — and names the
// survivors in surv, and each survivor's full arena row is then held to
// the threshold's Hamming bound — or, under a one-stage plan, they are
// the candidates, scored over the prefix against the stage-1 bound.
//
//biohd:hotpath
func (s *segment) probeRange(dst []Candidate, hv *hdc.HV, pl *scanPlan, lo, hi, gOff int, surv []int32) ([]Candidate, int) {
	q := hv.Words()
	plane, w := s.scanned(pl)
	if len(q) < w || !pl.oneStage && len(q) != s.rowWords {
		panic(fmt.Sprintf("core: query words %d against %d-word rows", len(q), s.rowWords))
	}
	n := bitvec.ScanPlane(plane, w, q[:w], pl.sketchBound, lo, hi, surv)
	if pl.oneStage {
		for _, i := range surv[:n] {
			score := float64(64*w - 2*bitvec.HammingWords(s.planeRow(int(i)), q[:w]))
			dst = append(dst, Candidate{Bucket: gOff + int(i), Score: score})
		}
		return dst, n
	}
	for _, i := range surv[:n] {
		if h, ok := bitvec.HammingBounded(s.arenaRow(int(i)), q, pl.maxHam); ok {
			dst = append(dst, Candidate{Bucket: gOff + int(i), Score: float64(64*s.rowWords - 2*h)})
		}
	}
	return dst, n
}

// probeBlockRange scans local buckets [lo, hi) against a whole query
// block, appending each query's candidates (with global bucket indices)
// to dsts. The range is walked tile by tile and each tile is scanned by
// every query of the block before the walk moves on, so the plane is
// read from memory once per block, not once per query; surv, of at
// least tileRows entries, is the survivor scratch.
//
//biohd:hotpath
func (s *segment) probeBlockRange(dsts [][]Candidate, hvs []*hdc.HV, pl *scanPlan, lo, hi, gOff int, surv []int32, ctr *libCounters) {
	// One storage-tier tally per range scan (not per row) — same
	// publish cadence as the counters below.
	if s.mapLen > 0 {
		ctr.mappedScans.Add(1)
	} else {
		ctr.heapScans.Add(1)
	}
	_, w := s.scanned(pl)
	tile := tileRows(w)
	survivors, cands := 0, 0
	for t := lo; t < hi; t += tile {
		te := min(t+tile, hi)
		for j, hv := range hvs {
			before := len(dsts[j])
			var n int
			dsts[j], n = s.probeRange(dsts[j], hv, pl, t, te, gOff, surv)
			survivors += n
			cands += len(dsts[j]) - before
		}
	}
	// One atomic publish per range keeps the scan synchronization-free.
	// Abandoned counts (row, query) pairs that did not become candidates,
	// whichever stage dropped them; the sketch counters only run where
	// there is a sketch stage to monitor.
	rows := int64(hi-lo) * int64(len(hvs))
	if abandoned := rows - int64(cands); abandoned > 0 {
		ctr.earlyAbandons.Add(abandoned)
	}
	if pl.sketch {
		ctr.sketchRows.Add(rows)
		ctr.sketchSurvivors.Add(int64(survivors))
	}
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

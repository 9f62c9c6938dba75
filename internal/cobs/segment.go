package cobs

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/genome"
)

// builder accumulates per-reference Bloom signature rows until sealing
// transposes them into a bit-sliced segment. It is only ever touched
// under the engine's mutation lock and never published, so plain slices
// suffice.
type builder struct {
	refIdx []int32    // column -> global reference index
	sigs   [][]uint64 // column -> signature words (RowBits/64 each)
	wins   []int32    // column -> reference windows memorized
}

func (b *builder) numCols() int { return len(b.refIdx) }

// push appends one reference column.
func (b *builder) push(refIdx int32, sig []uint64, wins int32) {
	b.refIdx = append(b.refIdx, refIdx)
	b.sigs = append(b.sigs, sig)
	b.wins = append(b.wins, wins)
}

// seal transposes the accumulated signature rows into an immutable
// bit-sliced segment: signature bit b of column j lands in word
// arena[b*colWords + j/64] bit j%64, so a probe of bit position b
// scans one contiguous colWords-long row covering every reference.
// Columns of removed references (nil sequence in refs) seal already
// tombstoned.
func (b *builder) seal(rowBits int, refs []genome.Record) *segment {
	cols := len(b.refIdx)
	colWords := (cols + 63) / 64
	s := &segment{
		arena:    make([]uint64, rowBits*colWords),
		tombs:    make([]uint64, colWords),
		refIdx:   append([]int32(nil), b.refIdx...),
		wins:     append([]int32(nil), b.wins...),
		colWords: colWords,
	}
	for j, sig := range b.sigs {
		word, bit := j/64, uint(j%64)
		for wi, sw := range sig {
			for sw != 0 {
				t := bits.TrailingZeros64(sw)
				sw &^= 1 << uint(t)
				row := wi*64 + t
				s.arena[row*colWords+word] |= 1 << bit
			}
		}
	}
	s.markTombstones(refs)
	return s
}

// markTombstones fills the tombstone bitmap and window totals of a
// freshly assembled segment from the reference table (removed
// references have nil sequences).
func (s *segment) markTombstones(refs []genome.Record) {
	for j, ref := range s.refIdx {
		s.totalWins += int(s.wins[j])
		if refs[ref].Seq == nil {
			s.tombs[j/64] |= 1 << uint(j%64)
			s.tombWins += int(s.wins[j])
		}
	}
}

// segment is one immutable bit-sliced arena: rowBits rows of colWords
// words each, row-major, over numCols reference columns. Published
// segments are scanned lock-free by readers, so nothing here is ever
// written after seal — Remove replaces the header with a fresh
// tombstone bitmap sharing the arena, and Compact rebuilds from
// scratch. The raw storage (arena, tombs) is touched only in this file
// and snapshot.go; everything else goes through the accessors.
type segment struct {
	arena    []uint64 // rowBits × colWords, row-major
	tombs    []uint64 // tombstoned columns (bit j of word j/64)
	refIdx   []int32  // column -> global reference index
	wins     []int32  // column -> windows memorized
	colWords int

	totalWins int // windows across all columns, tombstoned included
	tombWins  int // windows in tombstoned columns

	// mapOff and mapLen locate an arena that aliases the engine's file
	// mapping (a v3 container opened with core.MapArena); mapLen is 0 on
	// the heap. A mapped arena is read-only memory, which the
	// never-written-after-seal rule above already respects.
	mapOff, mapLen int
}

// NumBuckets, Windows and MemoryBytes make a segment a core.Segment;
// the backend's bucket is the reference column.
func (s *segment) NumBuckets() int { return len(s.refIdx) }

func (s *segment) Windows() (total, tombstoned int) { return s.totalWins, s.tombWins }

func (s *segment) MemoryBytes() int64 {
	return int64(len(s.arena)+len(s.tombs)) * 8
}

// MapRange tells the engine which bytes of its mapping the arena
// aliases, so compaction can mark them cold; (0, 0) on the heap.
func (s *segment) MapRange() (off, n int) { return s.mapOff, s.mapLen }

// tombstoneSegment is Kernel.Tombstone: a fresh segment header with
// reference ref's column tombstoned. The arena and column metadata are
// shared — published views keep reading the old header.
func tombstoneSegment(seg core.Segment, ref int) core.Segment {
	s := seg.(*segment)
	for col, r := range s.refIdx {
		if int(r) != ref || s.tombs[col/64]&(1<<uint(col%64)) != 0 {
			continue
		}
		ns := *s
		ns.tombs = append([]uint64(nil), s.tombs...)
		ns.tombs[col/64] |= 1 << uint(col%64)
		ns.tombWins += int(s.wins[col])
		return &ns
	}
	return seg
}

// signature reconstructs column col's Bloom signature from the
// bit-sliced arena (bit b set iff row b has the column's bit), for
// compaction rebuilds and serialization tests.
func (s *segment) signature(col int, rowBits int) []uint64 {
	sig := make([]uint64, rowBits/64)
	word, bit := col/64, uint(col%64)
	for b := 0; b < rowBits; b++ {
		if s.arena[b*s.colWords+word]&(1<<bit) != 0 {
			sig[b/64] |= 1 << uint(b%64)
		}
	}
	return sig
}

// rebuildSegment is Kernel.Rebuild: the live columns re-sliced into a
// fresh segment, tombstoned ones dropped; nil if nothing lives.
func rebuildSegment(seg core.Segment, refs []genome.Record) core.Segment {
	s := seg.(*segment)
	rowBits := len(s.arena) / s.colWords
	b := &builder{}
	for j := range s.refIdx {
		if s.tombs[j/64]&(1<<uint(j%64)) == 0 {
			b.push(s.refIdx[j], s.signature(j, rowBits), s.wins[j])
		}
	}
	if b.numCols() == 0 {
		return nil
	}
	return b.seal(rowBits, refs)
}

// probeAnd ANDs the probe-position rows into acc (colWords words) and
// masks out tombstoned columns: the surviving bits are the candidate
// columns for the queried w-mer. acc must have at least colWords
// capacity; the filled prefix is returned. This is the backend's whole
// candidate stage — a few contiguous word scans whatever the reference
// count.
//
//biohd:hotpath
func (s *segment) probeAnd(positions []int, acc []uint64) []uint64 {
	acc = acc[:s.colWords]
	row := s.arena[positions[0]*s.colWords:]
	copy(acc, row[:s.colWords])
	for _, p := range positions[1:] {
		row = s.arena[p*s.colWords:]
		for i := range acc {
			acc[i] &= row[i]
		}
	}
	for i := range acc {
		acc[i] &^= s.tombs[i]
	}
	return acc
}

// appendCandidates decodes the set bits of the AND accumulator into
// global reference indices, in ascending column order.
//
//biohd:hotpath
func (s *segment) appendCandidates(dst []int32, acc []uint64) []int32 {
	for wi, w := range acc {
		base := wi * 64
		for w != 0 {
			t := bits.TrailingZeros64(w)
			w &^= 1 << uint(t)
			dst = append(dst, s.refIdx[base+t])
		}
	}
	return dst
}

// arenaWords exposes the raw bit-sliced arena for serialization
// (read-only; the segment is immutable once published).
func (s *segment) arenaWords() []uint64 { return s.arena }

// column returns column j's global reference index and window count.
func (s *segment) column(j int) (int32, int32) { return s.refIdx[j], s.wins[j] }

// segmentFromArena reassembles a sealed segment around a loaded arena
// (aliased, not copied) and its column metadata, rebuilding the
// tombstone bitmap from the reference table (removed references have
// nil sequences).
func segmentFromArena(arena []uint64, colWords int, refIdx, wins []int32, refs []genome.Record) *segment {
	s := &segment{
		arena:    arena,
		tombs:    make([]uint64, colWords),
		refIdx:   refIdx,
		wins:     wins,
		colWords: colWords,
	}
	s.markTombstones(refs)
	return s
}

package cobs

import (
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/genome"
)

// builder is the index's core.Builder: per-reference Bloom signature
// rows accumulated until View transposes them into a bit-sliced
// segment. It is only ever touched under the engine's mutation lock and
// never published, so plain slices suffice.
type builder struct {
	params *Params
	refIdx []int32    // column -> global reference index
	sigs   [][]uint64 // column -> signature words (RowBits/64 each)
	wins   []int32    // column -> reference windows memorized
}

// Append is Builder.Append: the reference's w-mers are hashed into a
// fresh Bloom signature — the probe positions a query derives — which
// becomes a new column.
func (b *builder) Append(ref int32, rec genome.Record) int {
	p := b.params
	sig := make([]uint64, p.RowBits/64)
	var pos [maxHashes]int
	nWin := rec.Seq.Len() - p.Window + 1
	for off := 0; off < nWin; off++ {
		for _, q := range p.probePositions(rec.Seq, off, pos[:]) {
			sig[q/64] |= 1 << uint(q%64)
		}
	}
	b.refIdx = append(b.refIdx, ref)
	b.sigs = append(b.sigs, sig)
	b.wins = append(b.wins, int32(nWin))
	return len(b.refIdx)
}

// View is Builder.View: the accumulated signature rows transposed into
// an immutable bit-sliced segment, or nil without columns. Signature bit
// b of column j lands in word arena[b*colWords + j/64] bit j%64, so a
// probe of bit position b scans one contiguous colWords-long row
// covering every reference.
func (b *builder) View() core.Segment {
	cols := len(b.refIdx)
	if cols == 0 {
		return nil
	}
	colWords := (cols + 63) / 64
	s := &segment{
		arena:    make([]uint64, b.params.RowBits*colWords),
		refIdx:   slices.Clone(b.refIdx),
		wins:     slices.Clone(b.wins),
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
	return s
}

// segment is one immutable bit-sliced arena: rowBits rows of colWords
// words each, row-major, over numCols reference columns. Published
// segments are scanned lock-free by readers, so nothing here is ever
// written after View — a removed reference keeps its column, which the
// candidate decode skips, and Compact builds a new segment. The raw
// arena is touched only in this file and snapshot.go; everything else
// goes through the accessors.
type segment struct {
	arena    []uint64 // rowBits × colWords, row-major
	refIdx   []int32  // column -> global reference index
	wins     []int32  // column -> windows memorized
	colWords int
}

// NumBuckets and MemoryBytes make a segment a core.Segment; the
// backend's bucket is the reference column.
func (s *segment) NumBuckets() int { return len(s.refIdx) }

func (s *segment) MemoryBytes() int64 { return int64(len(s.arena)) * 8 }

// probeAnd ANDs the probe-position rows into acc (colWords words): the
// surviving bits are the candidate columns for the queried w-mer. acc must have at least colWords
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
	return acc
}

// appendCandidates decodes the set bits of the AND accumulator into
// global reference indices, in ascending column order, skipping the
// references removed in refs (their Seq is nil).
//
//biohd:hotpath
func (s *segment) appendCandidates(dst []int32, acc []uint64, refs []genome.Record) []int32 {
	for wi, w := range acc {
		base := wi * 64
		for w != 0 {
			t := bits.TrailingZeros64(w)
			w &^= 1 << uint(t)
			if ref := s.refIdx[base+t]; refs[ref].Seq != nil {
				dst = append(dst, ref)
			}
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
// (aliased, not copied; read-only where it aliases the file mapping)
// and its column metadata.
func segmentFromArena(arena []uint64, colWords int, refIdx, wins []int32) *segment {
	return &segment{arena: arena, refIdx: refIdx, wins: wins, colWords: colWords}
}

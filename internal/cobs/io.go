package cobs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/mmapfile"
)

// BackendName is the registered backend name surfaced in Describe,
// /v1/stats, and the CLI -backend flag.
const BackendName = "cobs"

// backendTag tags this backend's v3 containers (header hint word and
// every directory entry). Tag 0 is the HDC library.
const backendTag uint32 = 1

func init() {
	core.RegisterBackend(backendTag, BackendName, parseMeta)
}

// save is Kernel.Save: each bit-sliced arena is one container segment
// of RowBits rows by colWords words, and the meta payload carries the
// geometry (Window, RowBits, Hashes), the reference table, and each
// segment's column metadata, which parseMeta reads back.
func (x *Index) save(v *core.View) ([]core.ContainerSegment, func(*core.SectionWriter)) {
	sn := viewOf(v)
	segs := make([]core.ContainerSegment, len(sn.segs))
	for k, seg := range sn.segs {
		segs[k] = core.ContainerSegment{
			Words:    seg.arenaWords(),
			RowWords: uint32(seg.colWords),
			Buckets:  uint32(x.params.RowBits),
		}
	}
	return segs, func(sw *core.SectionWriter) {
		sw.U32(uint32(x.params.Window))
		sw.U64(uint64(x.params.RowBits))
		sw.U32(uint32(x.params.Hashes))
		sw.Refs(v.Refs)
		for _, seg := range sn.segs {
			sw.U32(uint32(seg.NumBuckets()))
			for j := 0; j < seg.NumBuckets(); j++ {
				ref, wins := seg.column(j)
				sw.U32(uint32(ref))
				sw.U32(uint32(wins))
			}
		}
	}
}

// loader is the decoded meta section of a cobs-tagged container, and
// the core.ContainerLoader the container walk finishes the open through.
type loader struct {
	params Params
	refs   []genome.Record
	segRef [][]int32
	segWin [][]int32
}

// parseMeta is the registered meta parser behind core.ReadIndex and
// core.OpenLibraryFile. The container framing (CRCs, canonical layout,
// tags) is the shared walk's; this adds the backend-specific validation
// — plausible geometry, reference indices in range — and Shape lets the
// walk hold the directory to the column metadata before it reads an
// arena. Corrupt or implausible input is rejected with an error, never
// a panic.
func parseMeta(sr *core.SectionReader, segCount int) (core.ContainerLoader, error) {
	ld := &loader{}
	ld.params.Window = int(sr.U32())
	ld.params.RowBits = int(sr.U64())
	ld.params.Hashes = int(sr.U32())
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("cobs: reading v3 geometry: %w", err)
	}
	if err := ld.params.Validate(); err != nil {
		return nil, fmt.Errorf("cobs: implausible v3 geometry: %w", err)
	}
	refs, err := sr.Refs()
	if err != nil {
		return nil, err
	}
	ld.refs = refs
	for k := 0; k < segCount && sr.Err() == nil; k++ {
		cols := int(sr.U32())
		// Two words a column: a count the section's remaining bytes cannot
		// back is refused before the tables are sized from it.
		if cols < 0 || cols > core.MaxMetaCount || cols > sr.Remaining()/8 {
			return nil, fmt.Errorf("cobs: v3 segment %d declares %d columns", k, cols)
		}
		refIdx := make([]int32, cols)
		wins := make([]int32, cols)
		for j := 0; j < cols; j++ {
			r := sr.U32()
			wn := sr.U32()
			if int(r) >= len(refs) {
				return nil, fmt.Errorf("cobs: v3 segment %d column %d references %d, table has %d", k, j, r, len(refs))
			}
			// Bound before the int32 narrowing: an implausible count
			// must not wrap negative and corrupt the window totals.
			if wn > core.MaxMetaCount {
				return nil, fmt.Errorf("cobs: v3 segment %d column %d declares %d windows", k, j, wn)
			}
			refIdx[j] = int32(r)
			wins[j] = int32(wn)
		}
		ld.segRef = append(ld.segRef, refIdx)
		ld.segWin = append(ld.segWin, wins)
	}
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("cobs: reading v3 column metadata: %w", err)
	}
	return ld, nil
}

// Shape: RowBits rows of one bit per column.
func (ld *loader) Shape(k int, _ uint32) (rowWords, buckets uint32) {
	return uint32((len(ld.segRef[k]) + 63) / 64), uint32(ld.params.RowBits)
}

// Build assembles the frozen index; the arenas are aliased as given,
// so with a mapping the index scans the file in place.
func (ld *loader) Build(arenas []core.ContainerSegment, m *mmapfile.Mapping) (core.Index, error) {
	x, err := New(ld.params)
	if err != nil {
		return nil, err
	}
	segs := make([]core.Segment, len(arenas))
	members := make([][]core.Member, len(arenas))
	for k, a := range arenas {
		segs[k] = segmentFromArena(a.Words, int(a.RowWords), ld.segRef[k], ld.segWin[k])
		for j, ref := range ld.segRef[k] {
			members[k] = append(members[k], core.Member{Ref: ref, Windows: int(ld.segWin[k][j])})
		}
	}
	x.Restore(ld.refs, segs, members, arenas, m, annotate)
	return x, nil
}

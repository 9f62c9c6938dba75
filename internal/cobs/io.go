package cobs

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/genome"
)

// BackendName is the registered backend name surfaced in Describe,
// /v1/stats, and the CLI -backend flag.
const BackendName = "cobs"

// backendTag tags this backend's v3 containers (header hint word and
// every directory entry). Tag 0 is the HDC library.
const backendTag uint32 = 1

func init() {
	core.RegisterBackend(backendTag, BackendName, readIndexV3)
}

// WriteToV3 serializes the current snapshot into the shared v3
// container under the cobs backend tag: the meta section carries the
// geometry (Window, RowBits, Hashes), the reference table, and each
// segment's column metadata; each bit-sliced arena is one container
// segment of RowBits rows by colWords words. The index must be frozen.
// core.ReadIndex and core.OpenLibraryFile round-trip the output.
func (x *Index) WriteToV3(w io.Writer) (int64, error) {
	v, err := x.Pin("WriteToV3")
	if err != nil {
		return 0, err
	}
	defer x.Unpin()
	sn := viewOf(v)
	segs := make([]core.ContainerSegment, len(sn.segs))
	for k, seg := range sn.segs {
		segs[k] = core.ContainerSegment{
			Words:    seg.arenaWords(),
			RowWords: uint32(seg.colWords),
			Buckets:  uint32(x.params.RowBits),
		}
	}
	return core.WriteContainerV3(w, backendTag, func(sw *core.SectionWriter) {
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
	}, segs)
}

// cobsMeta is the decoded meta section of a cobs-tagged container.
type cobsMeta struct {
	params Params
	refs   []genome.Record
	segRef [][]int32
	segWin [][]int32
}

// readIndexV3 deserializes a cobs-tagged v3 container: the registered
// backend loader behind core.ReadIndex and core.OpenLibraryFile. The
// container framing (CRCs, canonical layout, directory tags) is
// enforced by the shared reader; this adds the backend-specific
// validation — plausible geometry, reference indices in range, arena
// shape matching the column metadata. Corrupt or implausible input is
// rejected with an error, never a panic. The result is frozen and
// heap-resident (the bit-sliced backend has no mmap mode).
func readIndexV3(br *bufio.Reader, hdr []byte) (core.Index, error) {
	var meta cobsMeta
	var segs []core.Segment
	err := core.ReadContainerV3(br, hdr, backendTag, func(sr *core.SectionReader, segCount int) error {
		meta.params.Window = int(sr.U32())
		meta.params.RowBits = int(sr.U64())
		meta.params.Hashes = int(sr.U32())
		if err := sr.Err(); err != nil {
			return fmt.Errorf("cobs: reading v3 geometry: %w", err)
		}
		if err := meta.params.Validate(); err != nil {
			return fmt.Errorf("cobs: implausible v3 geometry: %w", err)
		}
		refs, err := sr.Refs()
		if err != nil {
			return err
		}
		meta.refs = refs
		for k := 0; k < segCount; k++ {
			cols := int(sr.U32())
			if cols < 0 || cols > core.MaxMetaCount {
				return fmt.Errorf("cobs: v3 segment %d declares %d columns", k, cols)
			}
			refIdx := make([]int32, cols)
			wins := make([]int32, cols)
			for j := 0; j < cols; j++ {
				r := sr.U32()
				wn := sr.U32()
				if int(r) >= len(refs) {
					return fmt.Errorf("cobs: v3 segment %d column %d references %d, table has %d", k, j, r, len(refs))
				}
				// Bound before the int32 narrowing: an implausible count
				// must not wrap negative and corrupt the window totals.
				if wn > core.MaxMetaCount {
					return fmt.Errorf("cobs: v3 segment %d column %d declares %d windows", k, j, wn)
				}
				refIdx[j] = int32(r)
				wins[j] = int32(wn)
			}
			meta.segRef = append(meta.segRef, refIdx)
			meta.segWin = append(meta.segWin, wins)
		}
		return nil
	}, func(k int, s core.ContainerSegment) error {
		cols := len(meta.segRef[k])
		wantWords := (cols + 63) / 64
		if int(s.RowWords) != wantWords || int(s.Buckets) != meta.params.RowBits {
			return fmt.Errorf("cobs: v3 segment %d arena is %d×%d, column metadata says %d×%d",
				k, s.Buckets, s.RowWords, meta.params.RowBits, wantWords)
		}
		segs = append(segs, segmentFromArena(s.Words, int(s.RowWords), meta.segRef[k], meta.segWin[k], meta.refs))
		return nil
	})
	if err != nil {
		return nil, err
	}
	x, err := New(meta.params)
	if err != nil {
		return nil, err
	}
	x.Restore(meta.refs, segs, annotate)
	return x, nil
}

package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/hdc"
)

// The legacy stream formats (little endian), read-only: nothing writes
// them any more, every command still opens them, and `biohd convert`
// rewrites them as v3.
//
//	magic "BIOHDLIB" | version u32 | params | calibration |
//	refs u32 { id, desc, removed u32, [len u64, packed words] } |
//	segments u32 { buckets u32 { windows u32 {ref i32, off i32},
//	              sealed u8, payload (sealed words | counters + n) } } |
//	crc32 (IEEE, over everything before it)
//
// Version 2 has one bucket block per segment and flags removed
// references (their sequence is omitted). Version 1 — the
// pre-segmented monolith — had no removed flag and one flat bucket
// block; v1 files load as a single segment and answer queries
// identically to the library that saved them. Either may hold raw
// counter buckets instead of sealed words (Sealed false in the parameter
// block); readParamsChecked rejects those files with ErrRawCounters.

// readLegacyStream deserializes a v1 or v2 stream from its first byte
// (ReadIndex has peeked at the magic and version, not consumed them).
func readLegacyStream(br *bufio.Reader, version int) (*Library, error) {
	cr := &crcReader{r: br}
	cr.read(len(libMagic) + 4) // magic and version, folded into the CRC
	p, err := readParamsChecked(cr)
	if err != nil {
		return nil, err
	}
	cal := readCalibration(cr)
	refs, err := readRefs(cr, version >= 2)
	if err != nil {
		return nil, err
	}
	var segBkts [][]bucket

	// v1 has one flat bucket block; v2 prefixes a segment count.
	nSegs := uint32(1)
	if version >= 2 {
		nSegs = cr.u32()
		if cr.err == nil && nSegs > maxCount {
			return nil, fmt.Errorf("core: implausible segment count %d", nSegs)
		}
	}
	for s := uint32(0); s < nSegs && cr.err == nil; s++ {
		nBuckets := cr.u32()
		if cr.err == nil && nBuckets > maxCount {
			return nil, fmt.Errorf("core: implausible bucket count %d", nBuckets)
		}
		var bkts []bucket // grown as buckets arrive: the count is unauthenticated
		for i := uint32(0); i < nBuckets && cr.err == nil; i++ {
			var b bucket
			nWin := cr.u32()
			if cr.err == nil && nWin > maxCount {
				return nil, fmt.Errorf("core: implausible window count %d", nWin)
			}
			for j := uint32(0); j < nWin && cr.err == nil; j++ {
				wr := WindowRef{Ref: int32(cr.u32()), Off: int32(cr.u32())}
				if int(wr.Ref) >= len(refs) || wr.Ref < 0 {
					return nil, fmt.Errorf("core: bucket %d references sequence %d of %d", i, wr.Ref, len(refs))
				}
				b.windows = append(b.windows, wr)
			}
			if cr.u32() != 1 && cr.err == nil {
				return nil, fmt.Errorf("core: bucket %d storage mode disagrees with parameters", i)
			}
			words := cr.words(maxSeqWords)
			if cr.err != nil {
				break
			}
			if len(words)*64 != p.Dim {
				return nil, fmt.Errorf("core: bucket %d has %d words for dimension %d", i, len(words), p.Dim)
			}
			b.sealed = hdc.HVFromWords(words, p.Dim)
			bkts = append(bkts, b)
		}
		if cr.err != nil {
			break
		}
		if len(bkts) > 0 { // v1 wrote no empty bucket blocks; v2 never wrote empty segments either
			segBkts = append(segBkts, bkts)
		}
	}
	if cr.err != nil {
		return nil, fmt.Errorf("core: reading library: %w", cr.err)
	}
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("core: reading library checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != cr.crc {
		return nil, fmt.Errorf("core: library checksum mismatch (file %08x, computed %08x)", got, cr.crc)
	}
	if err := expectEOF(br); err != nil {
		return nil, err
	}
	// Only now, with the checksum verified, is the library (and its
	// encoder tables, up to hundreds of MiB for the largest geometry the
	// plausibility caps admit) built.
	lib, err := newLoadedLibrary(p)
	if err != nil {
		return nil, err
	}
	segs := make([]Segment, len(segBkts))
	for k, bkts := range segBkts {
		seg := newSegment(bkts, p.Dim, lib.sketchWords)
		seg.tombs = seg.countTombs(refs)
		segs[k] = seg
	}
	// v2 files were only ever written by frozen libraries; a v1 file is
	// frozen iff it holds buckets.
	if version >= 2 || len(segs) > 0 {
		lib.restore(refs, segs, cal, nil)
	} else {
		lib.refs = refs
	}
	return lib, nil
}

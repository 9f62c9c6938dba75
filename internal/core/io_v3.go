package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/genome"
	"repro/internal/mmapfile"
)

// Library file format v3 — the one format written, and the mappable
// layout (little endian). Every sealed segment's probe arena is placed
// at a 64-byte-aligned, header-recorded offset with its own CRC, so the
// file can be mmapped and the arenas scanned in place:
//
//	header (64 bytes, fixed):
//	  [ 0, 8)  magic "BIOHDLIB"
//	  [ 8,12)  version u32 = 3
//	  [12,16)  segment count u32
//	  [16,24)  meta offset u64 (= 64)
//	  [24,32)  meta length u64 (including its trailing CRC)
//	  [32,40)  directory offset u64 (64-byte aligned)
//	  [40,48)  arena region offset u64 (64-byte aligned)
//	  [48,56)  file size u64
//	  [56,60)  header crc32 (IEEE, over bytes [0,56))
//	  [60,64)  backend tag u32 (0 = hdc; historically reserved-zero)
//	meta (at 64): backend tag u32, then backend-specific — for hdc:
//	  params | calibration | refs | per-segment window metadata (bucket
//	  counts and WindowRef pairs — no vector payloads) | for an exact
//	  library, the group tables: G u32, then per segment G u32 group
//	  ends (DESIGN §8.6; absent in files written before routing, whose
//	  segments are all spill) | crc32
//	directory (64-byte aligned): one 32-byte entry per segment
//	  { arena offset u64, arena words u64, row words u32, buckets u32,
//	    arena crc32 u32, backend tag u32 } | crc32
//	arenas (each 64-byte aligned): segment k's nBuckets·rowWords sealed
//	  words, bucket-major — exactly the in-memory probe arena layout.
//
// The backend tag selects the index backend that interprets the meta
// section and arenas (see RegisterBackend); the header copy sits
// outside the header CRC and only selects the backend, while the copies
// leading the meta section and in every directory entry are covered
// by their section CRCs and are authoritative. The meta copy exists
// whatever the segment count, so even an empty container's tag cannot
// be flipped undetected.
//
// The layout is canonical: sections are ordered, offsets are the
// minimal aligned positions, every padding byte is zero, and a file
// ends exactly at the header's file size — readContainerV3
// (container.go) enforces all of it, on every storage tier. The
// 64-byte arena alignment matches the widest vector kernel (AVX-512)
// and the common cache line, so a mapped arena row is as aligned as a
// heap-allocated one.
const (
	libVersionMapped = 3
	v3HeaderSize     = 64
	v3DirEntrySize   = 32
	v3Align          = 64
)

func v3AlignUp(off uint64) uint64 {
	return (off + v3Align - 1) &^ uint64(v3Align-1)
}

// v3Header is the parsed fixed header.
type v3Header struct {
	segCount int
	metaLen  uint64
	dirOff   uint64
	arenaOff uint64
	fileSize uint64
	backend  uint32 // backend tag (trailing header word; 0 = hdc)
}

// save is Kernel.Save: each segment's stored rows, and the meta
// payload — parameters, calibration, the reference table, every
// bucket's member windows and, for an exact library, every segment's
// routing table (zeros for a segment read from a file without one: all
// spill) — that parseMetaV3 reads back.
func (l *Library) save(v *View) ([]ContainerSegment, func(*SectionWriter)) {
	sn := hdcOf(v)
	segs := make([]ContainerSegment, len(sn.segs))
	for k, seg := range sn.segs {
		words, grouped := seg.stored()
		segs[k] = ContainerSegment{
			Words:    words,
			RowWords: uint32(seg.rowWords),
			Buckets:  uint32(seg.NumBuckets()),
			Grouped:  grouped,
		}
	}
	return segs, func(sw *SectionWriter) {
		writeParams(&sw.fw, &l.params)
		writeCalibration(&sw.fw, &sn.cal)
		sw.Refs(v.Refs)
		for _, seg := range sn.segs {
			sw.U32(uint32(seg.NumBuckets()))
			for i := 0; i < seg.NumBuckets(); i++ {
				ws := seg.windows(i)
				sw.U32(uint32(len(ws)))
				for _, wr := range ws {
					sw.U32(uint32(wr.Ref))
					sw.U32(uint32(wr.Off))
				}
			}
		}
		if l.groups == 0 {
			return
		}
		sw.U32(uint32(l.groups))
		for _, seg := range sn.segs {
			ends := seg.groups
			for g := 0; g < l.groups; g++ {
				if ends == nil {
					sw.U32(0)
				} else {
					sw.U32(uint32(ends[g]))
				}
			}
		}
	}
}

// countingWriter tracks the absolute file offset so sections land at
// their header-recorded positions.
type countingWriter struct {
	bw  *bufio.Writer
	n   int64
	err error
}

func (o *countingWriter) Write(p []byte) (int, error) {
	if o.err != nil {
		return 0, o.err
	}
	n, err := o.bw.Write(p)
	o.n += int64(n)
	o.err = err
	return n, err
}

func (o *countingWriter) write(p []byte) {
	_, _ = o.Write(p)
}

// pad writes zero bytes up to absolute offset to. Section alignment is
// at most v3Align, so one buffer write always suffices.
func (o *countingWriter) pad(to uint64) {
	var zeros [v3Align]byte
	for o.err == nil && uint64(o.n) < to {
		chunk := to - uint64(o.n)
		if chunk > v3Align {
			chunk = v3Align
		}
		o.write(zeros[:chunk])
	}
}

// wordChunksLE serializes words little-endian through buf, a chunk at a
// time, handing each chunk to emit.
func wordChunksLE(words []uint64, buf []byte, emit func([]byte)) {
	for len(words) > 0 {
		n := min(len(buf)/8, len(words))
		for i, w := range words[:n] {
			binary.LittleEndian.PutUint64(buf[i*8:], w)
		}
		emit(buf[:n*8])
		words = words[n:]
	}
}

// parseV3Header verifies and decodes the fixed header (including its
// CRC) and the structural invariants tying the section offsets
// together: each section starts at the minimal aligned offset after its
// predecessor, so there is exactly one valid header for given section
// lengths. Its magic and version have passed checkHead.
func parseV3Header(hdr []byte) (v3Header, error) {
	var h v3Header
	if len(hdr) < v3HeaderSize {
		return h, fmt.Errorf("core: v3 header truncated")
	}
	if got, want := binary.LittleEndian.Uint32(hdr[56:60]), crc32.ChecksumIEEE(hdr[:56]); got != want {
		return h, fmt.Errorf("core: v3 header checksum mismatch (file %08x, computed %08x)", got, want)
	}
	// The trailing word is the backend tag (historically reserved-zero,
	// which is exactly the HDC tag). It sits outside the header CRC;
	// the meta section's leading word and the directory entries carry
	// the CRC-protected authoritative copies, so a flipped tag here is
	// caught at dispatch or meta/directory parse.
	h.backend = binary.LittleEndian.Uint32(hdr[60:64])
	h.segCount = int(binary.LittleEndian.Uint32(hdr[12:16]))
	metaOff := binary.LittleEndian.Uint64(hdr[16:24])
	h.metaLen = binary.LittleEndian.Uint64(hdr[24:32])
	h.dirOff = binary.LittleEndian.Uint64(hdr[32:40])
	h.arenaOff = binary.LittleEndian.Uint64(hdr[40:48])
	h.fileSize = binary.LittleEndian.Uint64(hdr[48:56])
	if h.segCount > maxCount {
		return h, fmt.Errorf("core: implausible segment count %d", h.segCount)
	}
	if metaOff != v3HeaderSize {
		return h, fmt.Errorf("core: v3 meta offset %d, want %d", metaOff, v3HeaderSize)
	}
	if h.metaLen < 4 || h.metaLen > 1<<40 {
		return h, fmt.Errorf("core: v3 meta length %d out of range", h.metaLen)
	}
	if h.dirOff != v3AlignUp(v3HeaderSize+h.metaLen) {
		return h, fmt.Errorf("core: v3 directory offset %d, want %d", h.dirOff, v3AlignUp(v3HeaderSize+h.metaLen))
	}
	if want := v3AlignUp(h.dirOff + uint64(h.segCount*v3DirEntrySize+4)); h.arenaOff != want {
		return h, fmt.Errorf("core: v3 arena offset %d, want %d", h.arenaOff, want)
	}
	if h.fileSize < h.arenaOff || h.fileSize > 1<<46 {
		return h, fmt.Errorf("core: v3 file size %d out of range", h.fileSize)
	}
	return h, nil
}

// hdcLoader is the HDC backend's ContainerLoader: the decoded meta
// section — everything a library needs except the arenas — and the
// empty library it describes. The library exists before the segments
// do because the sketch plane is not in the file: each segment cuts its
// own to the library's sketch width.
type hdcLoader struct {
	lib       *Library
	cal       Calibration
	refs      []genome.Record
	segWins   [][][]WindowRef // per segment, per bucket, member windows
	segGroups [][]int32       // per segment, the routing table; nil without one
}

func init() { RegisterBackend(backendTagHDC, BackendHDC, parseMetaV3) }

// parseMetaV3 decodes the HDC meta payload. Nothing is sized from a
// count the payload has yet to back with bytes: a segment's bucket table
// is walked once to count its windows, which are then decoded into one
// backing slice, each bucket a capped run of it — so an open allocates
// per segment, not per bucket, and nothing it keeps is over-allocated.
func parseMetaV3(sr *SectionReader, segCount int) (ContainerLoader, error) {
	p, err := readParamsChecked(sr)
	if err != nil {
		return nil, err
	}
	ld := &hdcLoader{cal: readCalibration(sr)}
	if ld.refs, err = readRefs(sr); err != nil {
		return nil, err
	}
	for s := 0; s < segCount && sr.err == nil; s++ {
		nBuckets := sr.U32()
		if sr.err == nil && nBuckets > maxCount {
			return nil, fmt.Errorf("core: implausible bucket count %d", nBuckets)
		}
		table, total := sr.b, 0
		for i := uint32(0); i < nBuckets && sr.err == nil; i++ {
			nWin := sr.U32()
			if sr.err == nil && nWin > maxCount {
				return nil, fmt.Errorf("core: implausible window count %d", nWin)
			}
			sr.read(8 * int(nWin))
			total += int(nWin)
		}
		if sr.err != nil {
			break
		}
		sr.b = table
		ws, wins := make([]WindowRef, total), make([][]WindowRef, nBuckets)
		for i := range wins {
			n := int(sr.U32())
			bw := ws[:n:n]
			for j := range bw {
				bw[j] = WindowRef{Ref: int32(sr.U32()), Off: int32(sr.U32())}
				if r := bw[j].Ref; r < 0 || int(r) >= len(ld.refs) {
					return nil, fmt.Errorf("core: bucket %d references sequence %d of %d", i, r, len(ld.refs))
				}
			}
			wins[i], ws = bw, ws[n:]
		}
		ld.segWins = append(ld.segWins, wins)
	}
	if sr.err != nil {
		return nil, fmt.Errorf("core: reading v3 metadata: %w", sr.err)
	}
	if sr.Remaining() > 0 {
		if ld.segGroups, err = readGroupTables(sr, routeGroups(p), ld.segWins); err != nil {
			return nil, err
		}
	}
	// The empty library the parameter block describes, keeping the
	// stored capacity exactly.
	if ld.lib, err = NewLibrary(p); err != nil {
		return nil, err
	}
	ld.lib.params = p
	ld.lib.groups = routeGroups(p)
	return ld, nil
}

// readGroupTables decodes the routing tables that close an exact
// library's meta payload: the group count, which must be want, the
// geometry's (0 for an approximate library, which has none to read),
// then each segment's group ends, which must not fall and must stay
// within the segment's buckets. Nothing is sized from the file: a table
// is want entries, and there is one per segment already decoded.
func readGroupTables(sr *SectionReader, want int, segWins [][][]WindowRef) ([][]int32, error) {
	if g := sr.U32(); sr.err == nil && (want == 0 || g != uint32(want)) {
		return nil, fmt.Errorf("core: v3 group table of %d groups, the library's geometry routes to %d", g, want)
	}
	tables := make([][]int32, len(segWins))
	for k, wins := range segWins {
		t := make([]int32, want)
		prev := uint32(0)
		for g := range t {
			end := sr.U32()
			if sr.err != nil {
				return nil, fmt.Errorf("core: reading v3 group table: %w", sr.err)
			}
			if end < prev || end > uint32(len(wins)) {
				return nil, fmt.Errorf("core: v3 segment %d group %d ends at bucket %d, after %d, of %d",
					k, g, end, prev, len(wins))
			}
			t[g], prev = int32(end), end
		}
		tables[k] = t
	}
	return tables, nil
}

// Shape accepts whole rows — which a one-window-a-row file written
// before rows were cut to sketches holds — or the library's own width.
func (ld *hdcLoader) Shape(k int, dirRowWords uint32) (rowWords, buckets uint32) {
	rowWords = uint32(ld.lib.rowWords)
	if dirRowWords == uint32(ld.lib.params.Dim/64) {
		rowWords = dirRowWords
	}
	return rowWords, uint32(len(ld.segWins[k]))
}

func (ld *hdcLoader) Build(arenas []ContainerSegment, m *mmapfile.Mapping) (Index, error) {
	segs := make([]Segment, len(arenas))
	members := make([][]Member, len(arenas))
	for k, a := range arenas {
		var groups []int32
		if ld.segGroups != nil {
			groups = ld.segGroups[k]
		}
		segs[k] = segmentFromArena(a.Words, ld.segWins[k], groups, int(a.RowWords), ld.lib.sketchWords, m != nil)
		members[k] = segmentMembers(ld.segWins[k], len(ld.refs))
	}
	// The view keeps the stored calibration: loading must not re-derive it.
	lib := ld.lib
	lib.cal = ld.cal
	lib.Restore(ld.refs, segs, members, arenas, m, func(v *View) any {
		sn := newHDCView(v, ld.cal)
		sn.plan = lib.scanPlanFor(sn)
		return sn
	})
	return lib, nil
}

// segmentMembers lists a loaded segment's members from its buckets'
// windows, over a reference table of nRefs: each distinct reference, in
// increasing index order, with its windows summed. A segment memorizes
// its references in increasing order, so that is the order they were
// memorized in, however the routing scattered their windows across
// groups and the spill.
func segmentMembers(wins [][]WindowRef, nRefs int) []Member {
	counts := make([]int, nRefs)
	for _, ws := range wins {
		for _, wr := range ws {
			counts[wr.Ref]++
		}
	}
	var ms []Member
	for ref, n := range counts {
		if n > 0 {
			ms = append(ms, Member{Ref: int32(ref), Windows: n})
		}
	}
	return ms
}

// LoadMode selects how OpenLibraryFile materializes a library.
type LoadMode int

const (
	// LoadHeap reads the file into the heap — the default tier:
	// fastest scans, footprint equal to library size.
	LoadHeap LoadMode = iota
	// MapArena memory-maps the file and aliases the sealed arenas
	// zero-copy: O(1) startup and a resident footprint proportional to
	// the hot set, with the kernel paging cold segments in and out.
	// Falls back to heap loading when the platform (or purego build)
	// cannot map or the host is not little-endian (the on-disk word
	// order is little-endian).
	MapArena
)

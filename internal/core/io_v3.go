package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/genome"
	"repro/internal/mmapfile"
)

// Library file format v3 — the mappable layout (little endian). Unlike
// the v1/v2 streams, every sealed segment's probe arena is placed at a
// 64-byte-aligned, header-recorded offset with its own CRC, so the file
// can be mmapped and the arenas scanned in place:
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
//	  counts and WindowRef pairs — no vector payloads) | crc32
//	directory (64-byte aligned): one 32-byte entry per segment
//	  { arena offset u64, arena words u64, row words u32, buckets u32,
//	    arena crc32 u32, backend tag u32 } | crc32
//	arenas (each 64-byte aligned): segment k's nBuckets·rowWords sealed
//	  words, bucket-major — exactly the in-memory probe arena layout.
//
// The backend tag selects the index backend that interprets the meta
// section and arenas (see RegisterBackend); the header copy sits
// outside the header CRC and is a dispatch hint, while the copies
// leading the meta section and in every directory entry are covered
// by their section CRCs and are authoritative. The meta copy exists
// whatever the segment count, so even an empty container's tag cannot
// be flipped undetected.
//
// The layout is canonical: sections are ordered, offsets are the
// minimal aligned positions, and every padding byte is zero, so the
// stream reader and the mapped opener enforce identical byte-level
// acceptance and a file ends exactly at the header's file size. The
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

// v3DirEntry is one parsed segment-directory entry.
type v3DirEntry struct {
	off      uint64 // absolute arena offset, 64-byte aligned
	words    uint64 // arena length in 64-bit words
	rowWords uint32
	buckets  uint32
	crc      uint32 // crc32 over the arena bytes
}

// v3Meta is the parsed meta section: everything a library needs except
// the arenas themselves.
type v3Meta struct {
	p       Params
	cal     Calibration
	refs    []genome.Record
	segWins [][][]WindowRef // per segment, per bucket, member windows
}

// WriteToV3 serializes the library's current snapshot in the mappable
// v3 format. Only frozen, sealed-mode libraries can be saved this way —
// the arena is the sealed storage v3 maps. It returns the number of
// bytes written (the v3 file size).
func (l *Library) WriteToV3(w io.Writer) (int64, error) {
	sn, err := l.pinForSave()
	if err != nil {
		return 0, err
	}
	defer l.Unpin()
	if !l.params.Sealed {
		return 0, fmt.Errorf("core: format v3 requires a sealed-mode library")
	}

	rw := uint32(l.params.Dim / 64)
	segs := make([]ContainerSegment, len(sn.segs))
	for k, seg := range sn.segs {
		segs[k] = ContainerSegment{
			Words:    seg.arenaWords(),
			RowWords: rw,
			Buckets:  uint32(seg.NumBuckets()),
		}
	}
	return WriteContainerV3(w, backendTagHDC, func(sw *SectionWriter) {
		writeParams(&sw.cw, &l.params)
		writeCalibration(&sw.cw, &sn.cal)
		sw.Refs(sn.refs)
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
	}, segs)
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

// writeWordsLE streams words to the file little-endian through buf.
func (o *countingWriter) writeWordsLE(words []uint64, buf []byte) {
	for len(words) > 0 && o.err == nil {
		n := len(buf) / 8
		if n > len(words) {
			n = len(words)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], words[i])
		}
		o.write(buf[:n*8])
		words = words[n:]
	}
}

// crcWordsLE computes the crc32 of words as serialized little-endian,
// chunking through buf — the v3 writer needs every arena's CRC before
// the directory (which precedes the arenas) is written.
func crcWordsLE(words []uint64, buf []byte) uint32 {
	crc := uint32(0)
	for len(words) > 0 {
		n := len(buf) / 8
		if n > len(words) {
			n = len(words)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], words[i])
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:n*8])
		words = words[n:]
	}
	return crc
}

// parseV3Header verifies and decodes the fixed header (including its
// CRC) and the structural invariants tying the section offsets
// together: each section starts at the minimal aligned offset after its
// predecessor, so there is exactly one valid header for given section
// lengths.
func parseV3Header(hdr []byte) (v3Header, error) {
	var h v3Header
	if len(hdr) < v3HeaderSize {
		return h, fmt.Errorf("core: v3 header truncated")
	}
	if string(hdr[0:8]) != libMagic || binary.LittleEndian.Uint32(hdr[8:12]) != libVersionMapped {
		return h, fmt.Errorf("core: not a v3 library header")
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

// parseMetaV3 decodes the meta section content (everything before its
// trailing CRC) from cr.
func parseMetaV3(cr *crcReader, segCount int) (*v3Meta, error) {
	m := &v3Meta{}
	var err error
	m.p, err = readParamsChecked(cr)
	if err != nil {
		return nil, err
	}
	if !m.p.Sealed {
		return nil, fmt.Errorf("core: v3 library must be sealed-mode")
	}
	m.cal = readCalibration(cr)
	m.refs, err = readRefs(cr, true)
	if err != nil {
		return nil, err
	}
	m.segWins = make([][][]WindowRef, 0, segCount)
	for s := 0; s < segCount && cr.err == nil; s++ {
		nBuckets := cr.u32()
		if cr.err == nil && nBuckets > maxCount {
			return nil, fmt.Errorf("core: implausible bucket count %d", nBuckets)
		}
		var wins [][]WindowRef
		for i := uint32(0); i < nBuckets && cr.err == nil; i++ {
			nWin := cr.u32()
			if cr.err == nil && nWin > maxCount {
				return nil, fmt.Errorf("core: implausible window count %d", nWin)
			}
			var ws []WindowRef
			for j := uint32(0); j < nWin && cr.err == nil; j++ {
				wr := WindowRef{Ref: int32(cr.u32()), Off: int32(cr.u32())}
				if wr.Ref < 0 || int(wr.Ref) >= len(m.refs) {
					return nil, fmt.Errorf("core: bucket %d references sequence %d of %d", i, wr.Ref, len(m.refs))
				}
				ws = append(ws, wr)
			}
			wins = append(wins, ws)
		}
		m.segWins = append(m.segWins, wins)
	}
	if cr.err != nil {
		return nil, fmt.Errorf("core: reading v3 metadata: %w", cr.err)
	}
	return m, nil
}

// parseDirV3 decodes the segment directory entries (not the trailing
// CRC) from cr. Every entry's trailing word must equal wantTag — the
// directory CRC protects the per-segment tag copies (the meta section
// leads with the other protected copy), so a reader dispatched on a
// forged header tag fails before touching any arena.
func parseDirV3(cr *crcReader, segCount int, wantTag uint32) ([]v3DirEntry, error) {
	var entries []v3DirEntry
	for k := 0; k < segCount && cr.err == nil; k++ {
		e := v3DirEntry{
			off:      cr.u64(),
			words:    cr.u64(),
			rowWords: cr.u32(),
			buckets:  cr.u32(),
			crc:      cr.u32(),
		}
		if tag := cr.u32(); cr.err == nil && tag != wantTag {
			return nil, fmt.Errorf("core: v3 directory entry %d backend tag %d, want %d", k, tag, wantTag)
		}
		entries = append(entries, e)
	}
	if cr.err != nil {
		return nil, fmt.Errorf("core: reading v3 directory: %w", cr.err)
	}
	return entries, nil
}

// validateDirV3 cross-checks the directory against the (CRC-verified)
// metadata and the header's layout: geometry per segment, sequential
// minimally-aligned arena placement, and the file ending exactly where
// the header says.
func validateDirV3(entries []v3DirEntry, m *v3Meta, h v3Header) error {
	rw := uint64(m.p.Dim / 64)
	off := h.arenaOff
	for k, e := range entries {
		if uint64(e.rowWords) != rw {
			return fmt.Errorf("core: v3 segment %d row words %d, want %d", k, e.rowWords, rw)
		}
		if int(e.buckets) != len(m.segWins[k]) {
			return fmt.Errorf("core: v3 segment %d bucket count %d disagrees with metadata (%d)", k, e.buckets, len(m.segWins[k]))
		}
		if e.words != uint64(e.buckets)*rw {
			return fmt.Errorf("core: v3 segment %d arena words %d, want %d", k, e.words, uint64(e.buckets)*rw)
		}
		if e.off != off {
			return fmt.Errorf("core: v3 segment %d arena offset %d, want %d", k, e.off, off)
		}
		off = v3AlignUp(e.off + e.words*8)
	}
	if off != h.fileSize {
		return fmt.Errorf("core: v3 arenas end at %d, header file size is %d", off, h.fileSize)
	}
	return nil
}

// newLibraryV3 creates the empty library a v3 file's metadata
// describes. The loaders need it before they build segments: the sketch
// plane is not in the file, each segment cuts its own to the library's
// sketch width.
func newLibraryV3(meta *v3Meta) (*Library, error) {
	lib, err := NewLibrary(meta.p)
	if err != nil {
		return nil, err
	}
	lib.params = meta.p // keep the stored capacity exactly
	return lib, nil
}

// readLibraryV3 is the heap-loading stream reader for v3: same
// byte-level acceptance as the mapped opener, arenas decoded into heap
// words. head is the already-consumed magic+version prefix.
func readLibraryV3(br *bufio.Reader, head []byte) (*Library, error) {
	hdr, err := readV3HeaderBytes(br, head)
	if err != nil {
		return nil, err
	}
	return readLibraryV3Hdr(br, hdr)
}

// readLibraryV3Hdr decodes a v3 container whose 64-byte header has
// been consumed, through the generic container reader — HDC-specific
// validation (dimension geometry, bucket counts against metadata) runs
// in the callbacks.
func readLibraryV3Hdr(br *bufio.Reader, hdr []byte) (*Library, error) {
	if tag := binary.LittleEndian.Uint32(hdr[60:64]); tag != backendTagHDC {
		return nil, fmt.Errorf("core: v3 library uses index backend %s; load it with ReadIndex", BackendName(tag))
	}
	var meta *v3Meta
	var lib *Library
	var segs []Segment
	err := ReadContainerV3(br, hdr, backendTagHDC,
		func(sr *SectionReader, segCount int) error {
			m, err := parseMetaV3(&sr.cr, segCount)
			if err != nil {
				return err
			}
			meta = m
			lib, err = newLibraryV3(m)
			return err
		},
		func(k int, s ContainerSegment) error {
			if int(s.RowWords) != meta.p.Dim/64 {
				return fmt.Errorf("core: v3 segment %d row words %d, want %d", k, s.RowWords, meta.p.Dim/64)
			}
			if int(s.Buckets) != len(meta.segWins[k]) {
				return fmt.Errorf("core: v3 segment %d bucket count %d disagrees with metadata (%d)", k, s.Buckets, len(meta.segWins[k]))
			}
			seg := segmentFromArena(s.Words, meta.segWins[k], meta.p.Dim, lib.sketch.Words, false)
			seg.tombs = seg.countTombs(meta.refs)
			segs = append(segs, seg)
			return nil
		})
	if err != nil {
		return nil, err
	}
	lib.restore(meta.refs, segs, meta.cal)
	return lib, nil
}

// readWordsLE reads n little-endian 64-bit words, returning them along
// with the crc32 of their byte stream.
func readWordsLE(r io.Reader, n uint64) ([]uint64, uint32, error) {
	words := make([]uint64, n)
	buf := make([]byte, 64*1024)
	crc := uint32(0)
	for i := uint64(0); i < n; {
		chunk := uint64(len(buf) / 8)
		if chunk > n-i {
			chunk = n - i
		}
		b := buf[:chunk*8]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, 0, err
		}
		crc = crc32.Update(crc, crc32.IEEETable, b)
		for j := uint64(0); j < chunk; j++ {
			words[i+j] = binary.LittleEndian.Uint64(b[j*8:])
		}
		i += chunk
	}
	return words, crc, nil
}

// skipZeroPadding consumes n padding bytes, requiring each to be zero —
// the canonical layout leaves no place for stray bytes to hide.
func skipZeroPadding(br *bufio.Reader, n uint64) error {
	for i := uint64(0); i < n; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("core: reading v3 padding: %w", err)
		}
		if b != 0 {
			return fmt.Errorf("core: v3 padding byte not zero")
		}
	}
	return nil
}

// zeroRange requires every byte of a mapped padding range to be zero.
func zeroRange(b []byte) error {
	for _, x := range b {
		if x != 0 {
			return fmt.Errorf("core: v3 padding byte not zero")
		}
	}
	return nil
}

// LoadMode selects how OpenLibraryFile materializes a library.
type LoadMode int

const (
	// LoadHeap reads the file into the heap (any format version) —
	// the default tier: fastest scans, footprint equal to library size.
	LoadHeap LoadMode = iota
	// MapArena memory-maps a v3 file and aliases the sealed arenas
	// zero-copy: O(1) startup and a resident footprint proportional to
	// the hot set, with the kernel paging cold segments in and out.
	// Falls back to heap loading when the platform (or purego build)
	// cannot map, the host is not little-endian (the on-disk word order
	// is little-endian), or the file is a v1/v2 stream.
	MapArena
)

// openMappedV3 maps path and builds a zero-copy library from it.
// handled=false means the file is not a mappable HDC v3 library (or
// mapping is unsupported) and the caller should fall back to the
// stream reader — backend-tagged containers fall back too, since only
// the HDC arenas are mapped in place today; with handled=true the
// outcome — including a corruption error — is final. Every CRC
// (header, meta, directory, and each segment arena) is verified at
// open, so a flipped arena byte surfaces here, before any probe could
// scan it.
func openMappedV3(path string) (lib *Library, handled bool, err error) {
	m, merr := mmapfile.Open(path)
	if merr != nil {
		if errors.Is(merr, mmapfile.ErrUnsupported) {
			return nil, false, nil
		}
		return nil, true, merr
	}
	b := m.Bytes()
	if len(b) < v3HeaderSize || string(b[0:8]) != libMagic ||
		binary.LittleEndian.Uint32(b[8:12]) != libVersionMapped {
		// Not a v3 file: the stream reader owns v1/v2 and the
		// not-a-library diagnostics.
		_ = m.Close()
		return nil, false, nil
	}
	defer func() {
		if err != nil {
			_ = m.Close()
		}
	}()
	h, err := parseV3Header(b[:v3HeaderSize])
	if err != nil {
		return nil, true, err
	}
	if h.backend != backendTagHDC {
		// A backend-tagged container: only HDC arenas map in place
		// today, so the stream reader dispatches it to its backend
		// (heap-loaded). A forged tag fails there on the CRC-protected
		// directory tags.
		_ = m.Close()
		return nil, false, nil
	}
	if h.fileSize != uint64(len(b)) {
		// Covers truncation and trailing data in one check — a mapped
		// file must be exactly the recorded size.
		return nil, true, fmt.Errorf("core: v3 file is %d bytes, header file size is %d", len(b), h.fileSize)
	}

	metaEnd := v3HeaderSize + h.metaLen
	mr := bytes.NewReader(b[v3HeaderSize : metaEnd-4])
	mcr := &crcReader{r: mr}
	// Same meta-leading tag check as the stream reader: the
	// CRC-protected copy that exists even with zero directory entries.
	if tag := mcr.u32(); mcr.err == nil && tag != backendTagHDC {
		return nil, true, fmt.Errorf("core: v3 meta section tagged for backend %s, header says %s",
			BackendName(tag), BackendName(backendTagHDC))
	}
	meta, err := parseMetaV3(mcr, h.segCount)
	if err != nil {
		return nil, true, err
	}
	if mr.Len() != 0 {
		return nil, true, fmt.Errorf("core: v3 metadata has %d undecoded bytes", mr.Len())
	}
	if got := binary.LittleEndian.Uint32(b[metaEnd-4 : metaEnd]); got != mcr.crc {
		return nil, true, fmt.Errorf("core: v3 metadata checksum mismatch (file %08x, computed %08x)", got, mcr.crc)
	}
	if err = zeroRange(b[metaEnd:h.dirOff]); err != nil {
		return nil, true, err
	}

	dirEnd := h.dirOff + uint64(h.segCount*v3DirEntrySize)
	dcr := &crcReader{r: bytes.NewReader(b[h.dirOff:dirEnd])}
	entries, err := parseDirV3(dcr, h.segCount, backendTagHDC)
	if err != nil {
		return nil, true, err
	}
	if got := binary.LittleEndian.Uint32(b[dirEnd : dirEnd+4]); got != dcr.crc {
		return nil, true, fmt.Errorf("core: v3 directory checksum mismatch (file %08x, computed %08x)", got, dcr.crc)
	}
	if err = validateDirV3(entries, meta, h); err != nil {
		return nil, true, err
	}
	if err = zeroRange(b[dirEnd+4 : h.arenaOff]); err != nil {
		return nil, true, err
	}
	if lib, err = newLibraryV3(meta); err != nil {
		return nil, true, err
	}

	// The verification pass streams every arena front to back; tell the
	// kernel so readahead keeps up. Hints are best-effort.
	arenaRegion := int(h.fileSize - h.arenaOff)
	_ = m.Advise(int(h.arenaOff), arenaRegion, mmapfile.AdviseSequential)
	segs := make([]Segment, 0, len(entries))
	for k, e := range entries {
		end := e.off + e.words*8
		ab := b[e.off:end]
		if got := crc32.ChecksumIEEE(ab); got != e.crc {
			return nil, true, fmt.Errorf("core: v3 segment %d arena checksum mismatch (file %08x, computed %08x)", k, e.crc, got)
		}
		if err = zeroRange(b[end:v3AlignUp(end)]); err != nil {
			return nil, true, err
		}
		words, werr := mmapfile.AsWords(ab)
		if werr != nil {
			return nil, true, werr
		}
		seg := segmentFromArena(words, meta.segWins[k], meta.p.Dim, lib.sketch.Words, true)
		seg.setMapRange(int(e.off), int(e.words*8))
		seg.tombs = seg.countTombs(meta.refs)
		segs = append(segs, seg)
	}
	// Everything verified is hot in the page cache now; mark the arena
	// region wanted so it stays warm for the first probes.
	_ = m.Advise(int(h.arenaOff), arenaRegion, mmapfile.AdviseWillNeed)
	// The library owns the mapping from here: Close unmaps it.
	lib.mapped, lib.mapping = true, m
	lib.restore(meta.refs, segs, meta.cal)
	return lib, true, nil
}

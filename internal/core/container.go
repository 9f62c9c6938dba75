package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/genome"
	"repro/internal/mmapfile"
)

// The v3 container codec: the header/meta/directory/arena framing of
// the one file format BioHD writes (layout in io_v3.go), shared by every
// index backend. Offsets, alignment, CRCs and canonical zero padding are
// identical whatever the backend — only the meta payload and the arena
// interpretation differ, and those a backend supplies as a meta writer
// (WriteContainerV3) and a registered meta parser (RegisterBackend).
// There is one writer and one reader: readContainerV3 below is the only
// function that walks a container, for both backends and both storage
// tiers, so it is the one acceptance surface to fuzz and corruption-test.

// MaxMetaCount caps count fields decoded from untrusted metadata, so a
// forged length prefix cannot trigger a huge allocation before any
// checksum is verified. Backend meta parsers apply it to their own
// count fields.
const MaxMetaCount = maxCount

// SectionWriter serializes one CRC-covered container section into
// memory; WriteContainerV3 checksums the finished section once.
type SectionWriter struct {
	fw fieldWriter
}

func (w *SectionWriter) U32(v uint32) { w.fw.u32(v) }
func (w *SectionWriter) U64(v uint64) { w.fw.u64(v) }

// Refs writes the shared reference-table encoding (ids, descriptions,
// tombstone flags, packed sequences) every backend stores.
func (w *SectionWriter) Refs(refs []genome.Record) { writeRefs(&w.fw, refs) }

// SectionReader decodes little-endian fields from one container
// section, whose CRC the walk has checked before the first read. The
// read methods latch the first error — a field running past the
// section's end, or a length over its plausibility cap — after which
// every read returns a zero value, so parsers check Err (or let the
// container walk check it) once.
type SectionReader struct {
	b   []byte // the section's undecoded rest
	err error
}

// read returns the next n bytes of the section.
func (r *SectionReader) read(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

func (r *SectionReader) U32() uint32 {
	b := r.read(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *SectionReader) U64() uint64 {
	b := r.read(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *SectionReader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a string, capped at the container's string limit.
func (r *SectionReader) Str() string {
	n := r.U32()
	if r.err == nil && n > maxStrLen {
		r.err = fmt.Errorf("string length %d exceeds limit %d", n, maxStrLen)
		return ""
	}
	return string(r.read(int(n)))
}

// Words reads a count-prefixed word slice, capped at limit words.
func (r *SectionReader) Words(limit uint32) []uint64 {
	n := r.U32()
	if r.err == nil && n > limit {
		r.err = fmt.Errorf("word count %d exceeds limit %d", n, limit)
		return nil
	}
	buf := r.read(int(n) * 8)
	if buf == nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return out
}

// Refs reads the shared reference-table encoding.
func (r *SectionReader) Refs() ([]genome.Record, error) { return readRefs(r) }

// Err returns the first read error, if any.
func (r *SectionReader) Err() error { return r.err }

// Remaining returns how many bytes of the section are still undecoded,
// so a parser can hold a declared count to the bytes that could back it
// before it sizes a table from it.
func (r *SectionReader) Remaining() int { return len(r.b) }

// ContainerSegment is one arena in a v3 container: a (Buckets ×
// RowWords) word matrix stored row-major. For the HDC backend a row is
// a sealed bucket hypervector; for the bit-sliced backend a row is one
// Bloom bit position's column bitmap. len(Words) must equal
// Buckets·RowWords. FileOff is the arena's byte offset in the container
// (set by the reader, ignored by the writer): where Words aliases the
// file mapping when there is one. Grouped says Words holds the rows in
// bitvec's grouped plane layout (set by the HDC writer, never by the
// reader): the writer stores them row-major all the same.
type ContainerSegment struct {
	Words    []uint64
	RowWords uint32
	Buckets  uint32
	FileOff  uint64
	Grouped  bool
}

// chunksLE serializes the segment's rows little-endian and row-major,
// a chunk at a time through buf, handing each chunk to emit.
func (s ContainerSegment) chunksLE(buf []byte, emit func([]byte)) {
	if !s.Grouped {
		wordChunksLE(s.Words, buf, emit)
		return
	}
	bitvec.UngroupRows(s.Words, int(s.RowWords), func(rows []uint64) { wordChunksLE(rows, buf, emit) })
}

// WriteContainerV3 writes a complete v3 container: the fixed header
// carrying backend in its trailing word, the meta section (leading
// backend tag word, then the payload produced by writeMeta, CRC
// appended), the segment directory (each entry tagged with backend
// inside the directory CRC), and the 64-byte-aligned arenas. Offsets
// are the minimal aligned positions and all padding is zero — the
// canonical layout the reader enforces byte for byte. It returns the
// number of bytes written (the v3 file size).
//
// The header's tag word sits outside the header CRC, so the codec
// writes two CRC-protected copies: one leading the meta section
// (present even in a zero-segment container) and one in every
// directory entry. A flipped header tag therefore always disagrees
// with a protected copy, whatever the segment count.
func WriteContainerV3(w io.Writer, backend uint32, writeMeta func(*SectionWriter), segs []ContainerSegment) (int64, error) {
	// Meta section, built first so the header can record its length.
	sw := &SectionWriter{}
	sw.U32(backend)
	writeMeta(sw)
	meta := sw.fw.sealed()

	// Layout: minimal aligned offsets, in section order.
	nSegs := len(segs)
	metaLen := uint64(len(meta))
	dirOff := v3AlignUp(v3HeaderSize + metaLen)
	arenaOff := v3AlignUp(dirOff + uint64(nSegs*v3DirEntrySize+4))

	encBuf := make([]byte, 64*1024)
	offs, crcs := make([]uint64, nSegs), make([]uint32, nSegs)
	off := arenaOff
	for k, s := range segs {
		if uint64(len(s.Words)) != uint64(s.RowWords)*uint64(s.Buckets) {
			return 0, fmt.Errorf("core: v3 segment %d arena has %d words, geometry says %d×%d", k, len(s.Words), s.Buckets, s.RowWords)
		}
		crc := uint32(0)
		s.chunksLE(encBuf, func(b []byte) { crc = crc32.Update(crc, crc32.IEEETable, b) })
		offs[k], crcs[k] = off, crc
		off = v3AlignUp(off + uint64(len(s.Words))*8)
	}
	fileSize := off

	var hdr [v3HeaderSize]byte
	copy(hdr[0:8], libMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], libVersionMapped)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(nSegs))
	binary.LittleEndian.PutUint64(hdr[16:24], v3HeaderSize)
	binary.LittleEndian.PutUint64(hdr[24:32], metaLen)
	binary.LittleEndian.PutUint64(hdr[32:40], dirOff)
	binary.LittleEndian.PutUint64(hdr[40:48], arenaOff)
	binary.LittleEndian.PutUint64(hdr[48:56], fileSize)
	binary.LittleEndian.PutUint32(hdr[56:60], crc32.ChecksumIEEE(hdr[:56]))
	binary.LittleEndian.PutUint32(hdr[60:64], backend)

	out := &countingWriter{bw: bufio.NewWriter(w)}
	out.write(hdr[:])
	out.write(meta)
	out.pad(dirOff)
	var dir fieldWriter
	for k, s := range segs {
		dir.u64(offs[k])
		dir.u64(uint64(len(s.Words)))
		dir.u32(s.RowWords)
		dir.u32(s.Buckets)
		dir.u32(crcs[k])
		dir.u32(backend)
	}
	out.write(dir.sealed())
	out.pad(arenaOff)
	for k, s := range segs {
		out.pad(offs[k])
		s.chunksLE(encBuf, out.write)
	}
	out.pad(fileSize)
	if out.err != nil {
		return out.n, fmt.Errorf("core: saving library: %w", out.err)
	}
	if uint64(out.n) != fileSize {
		return out.n, fmt.Errorf("core: v3 writer emitted %d bytes, layout computed %d", out.n, fileSize)
	}
	if err := out.bw.Flush(); err != nil {
		return out.n, fmt.Errorf("core: saving library: %w", err)
	}
	return out.n, nil
}

// ContainerLoader is what a backend's meta parser hands back to the
// walk: the arena geometry its metadata implies — checked against the
// directory before any arena is read — and the step that assembles the
// index once every arena has been verified.
type ContainerLoader interface {
	// Shape returns the row length (dirRowWords, if the backend accepts
	// the directory's) and row count the metadata implies for segment k.
	Shape(k int, dirRowWords uint32) (rowWords, buckets uint32)
	// Build assembles the frozen index from the verified arenas. A
	// non-nil m means every segs[k].Words aliases m at FileOff: Build
	// passes m to Engine.Restore, which owns it from then on.
	Build(segs []ContainerSegment, m *mmapfile.Mapping) (Index, error)
}

// source is where the walk's bytes come from. The storage tiers differ
// in this (and in the mapping the walk passes on) and in nothing the
// walk accepts.
type source interface {
	// take returns the next n bytes of the container, 8-byte aligned and
	// valid for as long as the index built from them.
	take(n uint64) ([]byte, error)
	// end fails unless the container's last byte has been taken.
	end() error
}

// mappedSource serves sub-slices of a file mapping.
type mappedSource struct {
	m   *mmapfile.Mapping
	off uint64
}

func (s *mappedSource) take(n uint64) ([]byte, error) {
	b := s.m.Bytes()
	if n > uint64(len(b))-s.off {
		return nil, io.ErrUnexpectedEOF
	}
	b = b[s.off : s.off+n : s.off+n]
	s.off += n
	return b, nil
}

func (s *mappedSource) end() error {
	if s.off != uint64(s.m.Len()) {
		return errTrailingData
	}
	return nil
}

// streamChunk is the first allocation of a streamSource take of
// unvouched length; the buffer doubles from there while bytes keep
// arriving.
const streamChunk = 1 << 20

// streamSource reads the container from a stream into fresh heap
// memory. The memory is word-backed, so an arena taken from it is
// aliased as []uint64 exactly like a mapped one, and it grows only as
// bytes actually arrive: a length the file merely claims costs at most
// twice the bytes present, never the claim.
type streamSource struct {
	br *bufio.Reader
	// avail is how many bytes a regular file's size vouches for beyond
	// those taken, 0 when the input's length is unknown: a take within
	// it is allocated once, with no doubling and no copy.
	avail uint64
}

func (s *streamSource) take(n uint64) ([]byte, error) {
	first := max(streamChunk, s.avail)
	s.avail -= min(n, s.avail)
	var words []uint64
	for got := uint64(0); got < n; {
		want := min(n, max(2*got, first))
		next := make([]uint64, (want+7)/8)
		copy(next, words)
		words = next
		if _, err := io.ReadFull(s.br, mmapfile.WordBytes(words)[got:want]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		got = want
	}
	return mmapfile.WordBytes(words)[:n], nil
}

func (s *streamSource) end() error { return expectEOF(s.br) }

// takeZeros consumes n padding bytes, requiring each to be zero — the
// canonical layout leaves no place for stray bytes to hide.
func takeZeros(src source, n uint64) error {
	b, err := src.take(n)
	if err != nil {
		return fmt.Errorf("core: reading v3 padding: %w", err)
	}
	for _, x := range b {
		if x != 0 {
			return fmt.Errorf("core: v3 padding byte not zero")
		}
	}
	return nil
}

// takeSection takes an n-byte section whose last four bytes are the
// CRC of the rest, verifies it, and returns the rest. The check comes
// before anything is parsed: the bytes are in hand, and a backend's
// parser builds from what it decodes.
func takeSection(src source, n uint64, what string) ([]byte, error) {
	b, err := src.take(n)
	if err != nil {
		return nil, fmt.Errorf("core: reading v3 %s: %w", what, err)
	}
	body, stored := b[:n-4], binary.LittleEndian.Uint32(b[n-4:])
	if got := crc32.ChecksumIEEE(body); got != stored {
		return nil, fmt.Errorf("core: v3 %s checksum mismatch (file %08x, computed %08x)", what, stored, got)
	}
	return body, nil
}

// readContainerV3 is the one reader of the v3 container: every open of
// every backend on every storage tier is this walk over a source. In
// file order it enforces the header CRC and structural offsets; the
// backend tag (the header word selects the backend, the meta section's
// leading word and every directory entry must repeat it); the meta CRC
// with the backend's parser consuming the payload exactly; the
// directory CRC, the generic geometry (each arena exactly
// Buckets·RowWords words at the minimal aligned offset, the last ending
// at the header's file size) and the backend's own shape for every
// segment — all before any arena is touched; each arena's CRC; all-zero
// padding; and the end of the input at the recorded size. Nothing is
// allocated from a length the bytes present have not yet vouched for.
// m is the mapping src serves, nil for a stream: it is handed to the
// backend with the verified arenas.
func readContainerV3(src source, m *mmapfile.Mapping) (Index, error) {
	hdr, err := src.take(v3HeaderSize)
	if err != nil {
		return nil, fmt.Errorf("core: reading v3 header: %w", err)
	}
	h, err := parseV3Header(hdr)
	if err != nil {
		return nil, err
	}
	be, ok := lookupBackend(h.backend)
	if !ok {
		return nil, fmt.Errorf("core: v3 library uses unknown index backend tag %d", h.backend)
	}

	meta, err := takeSection(src, h.metaLen, "metadata")
	if err != nil {
		return nil, err
	}
	sr := &SectionReader{b: meta}
	// The header word sits outside the header CRC and may have been
	// flipped; the copy leading the meta section may not, and exists
	// even when segCount == 0 leaves no directory entries to carry one.
	if tag := sr.U32(); sr.err == nil && tag != h.backend {
		return nil, fmt.Errorf("core: v3 meta section tagged for backend %s, header says %s",
			BackendName(tag), BackendName(h.backend))
	}
	ld, err := be.parseMeta(sr, h.segCount)
	if err != nil {
		return nil, err
	}
	if sr.err != nil {
		return nil, fmt.Errorf("core: reading v3 metadata: %w", sr.err)
	}
	if n := sr.Remaining(); n != 0 {
		return nil, fmt.Errorf("core: v3 metadata has %d undecoded bytes", n)
	}
	if err := takeZeros(src, h.dirOff-(v3HeaderSize+h.metaLen)); err != nil {
		return nil, err
	}

	dirLen := uint64(h.segCount)*v3DirEntrySize + 4
	dir, err := takeSection(src, dirLen, "directory")
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	segs := make([]ContainerSegment, h.segCount) // the directory's bytes are in hand
	crcs := make([]uint32, h.segCount)
	off := h.arenaOff
	for k := range segs {
		e := dir[k*v3DirEntrySize:]
		s := &segs[k]
		s.FileOff, s.RowWords, s.Buckets = le.Uint64(e[0:]), le.Uint32(e[16:]), le.Uint32(e[20:])
		words := le.Uint64(e[8:])
		crcs[k] = le.Uint32(e[24:])
		if tag := le.Uint32(e[28:]); tag != h.backend {
			return nil, fmt.Errorf("core: v3 directory entry %d backend tag %d, want %d", k, tag, h.backend)
		}
		if rw, bk := ld.Shape(k, s.RowWords); s.RowWords != rw || s.Buckets != bk {
			return nil, fmt.Errorf("core: v3 segment %d arena is %d×%d, metadata says %d×%d", k, s.Buckets, s.RowWords, bk, rw)
		}
		if words != uint64(s.RowWords)*uint64(s.Buckets) || words > h.fileSize/8 {
			return nil, fmt.Errorf("core: v3 segment %d arena words %d, geometry says %d×%d", k, words, s.Buckets, s.RowWords)
		}
		if s.FileOff != off {
			return nil, fmt.Errorf("core: v3 segment %d arena offset %d, want %d", k, s.FileOff, off)
		}
		off = v3AlignUp(off + words*8)
	}
	if off != h.fileSize {
		return nil, fmt.Errorf("core: v3 arenas end at %d, header file size is %d", off, h.fileSize)
	}
	if err := takeZeros(src, h.arenaOff-(h.dirOff+dirLen)); err != nil {
		return nil, err
	}

	for k := range segs {
		s := &segs[k]
		n := uint64(s.RowWords) * uint64(s.Buckets) * 8
		ab, err := src.take(n)
		if err != nil {
			return nil, fmt.Errorf("core: reading v3 segment %d arena: %w", k, err)
		}
		if got := crc32.ChecksumIEEE(ab); got != crcs[k] {
			return nil, fmt.Errorf("core: v3 segment %d arena checksum mismatch (file %08x, computed %08x)", k, crcs[k], got)
		}
		if err := takeZeros(src, v3AlignUp(n)-n); err != nil {
			return nil, err
		}
		if s.Words, err = mmapfile.AsWords(ab); err != nil {
			return nil, err
		}
		if !mmapfile.HostLittleEndian() {
			// Only heap memory gets here: OpenLibraryFile does not map
			// on a big-endian host.
			for i, w := range s.Words {
				s.Words[i] = bits.ReverseBytes64(w)
			}
		}
	}
	if err := src.end(); err != nil {
		return nil, err
	}
	return ld.Build(segs, m)
}

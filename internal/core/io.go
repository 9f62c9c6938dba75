package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/genome"
	"repro/internal/hdc"
)

// Library file format (little endian):
//
//	magic "BIOHDLIB" | version u32 | params | calibration |
//	refs u32 { id, desc, removed u32, [len u64, packed words] } |
//	segments u32 { buckets u32 { windows u32 {ref i32, off i32},
//	              sealed u8, payload (sealed words | counters + n) } } |
//	crc32 (IEEE, over everything before it)
//
// Version 2 writes one bucket block per segment and flags removed
// references (their sequence is omitted). Version 1 — the
// pre-segmented monolith — had no removed flag and one flat bucket
// block; v1 files load as a single segment and answer queries
// identically to the library that saved them. The active segment is
// serialized like a sealed one: a loaded library starts with an empty
// active segment and every saved bucket immutable.
//
// Version 3 (io_v3.go) is the mappable layout: the same metadata as a
// stream, but every sealed segment's probe arena placed 64-byte-aligned
// at a header-recorded offset with a per-segment CRC, so the file can
// be mmapped and scanned zero-copy. ReadLibrary accepts all three;
// WriteTo emits v2 and WriteToV3 emits v3.
const (
	libMagic   = "BIOHDLIB"
	libVersion = 2
)

// crcWriter tees writes into a running CRC.
type crcWriter struct {
	w   io.Writer
	crc uint32
	err error
}

func (cw *crcWriter) write(data []byte) {
	if cw.err != nil {
		return
	}
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, data)
	_, cw.err = cw.w.Write(data)
}

func (cw *crcWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	cw.write(b[:])
}

func (cw *crcWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	cw.write(b[:])
}

func (cw *crcWriter) f64(v float64) { cw.u64(math.Float64bits(v)) }

func (cw *crcWriter) str(s string) {
	cw.u32(uint32(len(s)))
	cw.write([]byte(s))
}

func (cw *crcWriter) words(ws []uint64) {
	cw.u32(uint32(len(ws)))
	buf := make([]byte, 8*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	cw.write(buf)
}

// WriteTo serializes the library's current snapshot in the v2 stream
// format. Only frozen libraries can be saved (a half-built library has
// no stable search semantics). It returns the number of payload bytes
// written.
func (l *Library) WriteTo(w io.Writer) (int64, error) {
	sn, err := l.pinForSave()
	if err != nil {
		return 0, err
	}
	defer l.Unpin()
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	cw.write([]byte(libMagic))
	cw.u32(libVersion)

	writeParams(cw, &l.params)
	writeCalibration(cw, &sn.cal)
	writeRefs(cw, sn.refs)

	cw.u32(uint32(len(sn.segs)))
	for _, seg := range sn.segs {
		cw.u32(uint32(seg.NumBuckets()))
		for i := 0; i < seg.NumBuckets(); i++ {
			ws := seg.windows(i)
			cw.u32(uint32(len(ws)))
			for _, wr := range ws {
				cw.u32(uint32(wr.Ref))
				cw.u32(uint32(wr.Off))
			}
			if l.params.Sealed {
				cw.u32(1)
				cw.words(seg.vector(i).Bits().Words())
			} else {
				cw.u32(0)
				acc := seg.counters(i)
				counts := acc.Counts()
				cw.u32(uint32(len(counts)))
				buf := make([]byte, 4*len(counts))
				for j, c := range counts {
					binary.LittleEndian.PutUint32(buf[j*4:], uint32(c))
				}
				cw.write(buf)
				cw.u32(uint32(acc.N()))
			}
		}
	}
	if cw.err != nil {
		return 0, fmt.Errorf("core: saving library: %w", cw.err)
	}
	// Trailing CRC (not itself covered).
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.crc)
	if _, err := bw.Write(tail[:]); err != nil {
		return 0, fmt.Errorf("core: saving library: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("core: saving library: %w", err)
	}
	return 0, nil
}

// writeParams serializes the 10 parameter fields (shared by v2 and v3).
func writeParams(cw *crcWriter, p *Params) {
	cw.u32(uint32(p.Dim))
	cw.u32(uint32(p.Window))
	cw.u32(uint32(p.Stride))
	cw.u32(uint32(p.Capacity))
	cw.u32(boolU32(p.Approx))
	cw.u32(boolU32(p.Sealed))
	cw.u32(uint32(p.MutTolerance))
	cw.f64(p.Alpha)
	cw.f64(p.Beta)
	cw.u64(p.Seed)
}

// writeCalibration serializes the calibration block (shared by v2 and v3).
func writeCalibration(cw *crcWriter, cal *Calibration) {
	cw.f64(cal.NoiseMean)
	cw.f64(cal.NoiseStd)
	cw.f64(cal.SignalMean)
	cw.f64(cal.SignalStd)
	cw.f64(cal.Tau)
	cw.u32(uint32(cal.Samples))
}

// writeRefs serializes the reference table with removed-flags (the v2
// encoding, shared by v3).
func writeRefs(cw *crcWriter, refs []genome.Record) {
	cw.u32(uint32(len(refs)))
	for _, rec := range refs {
		cw.str(rec.ID)
		cw.str(rec.Description)
		if rec.Seq == nil {
			cw.u32(1) // removed: tombstone keeps the slot, drops the bases
			continue
		}
		cw.u32(0)
		cw.u64(uint64(rec.Seq.Len()))
		cw.words(rec.Seq.PackedWords())
	}
}

func boolU32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// crcReader tees reads into a running CRC.
type crcReader struct {
	r   io.Reader
	crc uint32
	err error
}

func (cr *crcReader) read(n int) []byte {
	if cr.err != nil {
		return nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(cr.r, buf); err != nil {
		cr.err = err
		return nil
	}
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, buf)
	return buf
}

func (cr *crcReader) u32() uint32 {
	b := cr.read(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (cr *crcReader) u64() uint64 {
	b := cr.read(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (cr *crcReader) f64() float64 { return math.Float64frombits(cr.u64()) }

func (cr *crcReader) str(limit uint32) string {
	n := cr.u32()
	if cr.err == nil && n > limit {
		cr.err = fmt.Errorf("string length %d exceeds limit %d", n, limit)
		return ""
	}
	return string(cr.read(int(n)))
}

func (cr *crcReader) words(limit uint32) []uint64 {
	n := cr.u32()
	if cr.err == nil && n > limit {
		cr.err = fmt.Errorf("word count %d exceeds limit %d", n, limit)
		return nil
	}
	buf := cr.read(int(n) * 8)
	if buf == nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return out
}

// sanity limits for untrusted input: large enough for any realistic
// genome library (a human chromosome is ~8 M packed words), small enough
// that a forged length prefix cannot trigger a multi-gigabyte
// allocation before the checksum is verified.
const (
	maxStrLen   = 1 << 20
	maxSeqWords = 1 << 23 // 268 Mbases per sequence
	maxCount    = 1 << 24
)

// ReadLibrary deserializes a library saved in any supported format —
// the v2 stream (WriteTo), the pre-segmented v1 stream, or the
// mappable v3 layout (WriteToV3, read here into the heap) — verifying
// every checksum; the result is frozen and ready to search. All
// versions probe through the same kernels — and produce the same
// answers — as the library that was saved. Any bytes following the
// format's final checksum are rejected: a truncated concatenation or a
// corrupt length field must not load as a valid library.
func ReadLibrary(r io.Reader) (*Library, error) {
	br := bufio.NewReader(r)
	var head [12]byte
	if _, err := io.ReadFull(br, head[:]); err != nil || string(head[:len(libMagic)]) != libMagic {
		return nil, fmt.Errorf("core: not a BioHD library file")
	}
	switch version := binary.LittleEndian.Uint32(head[len(libMagic):]); version {
	case 1, 2:
		return readLibraryV12(br, head[:], int(version))
	case libVersionMapped:
		return readLibraryV3(br, head[:])
	default:
		return nil, fmt.Errorf("core: unsupported library version %d", version)
	}
}

// expectEOF asserts the stream is exhausted — every format ends at its
// final checksum, so a readable byte here means trailing garbage (or a
// concatenated second file) that must not silently pass.
func expectEOF(br *bufio.Reader) error {
	switch _, err := br.ReadByte(); err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("core: trailing data after library checksum")
	default:
		return fmt.Errorf("core: reading library: %w", err)
	}
}

// readParamsChecked deserializes and validates the parameter block,
// including plausibility caps: a forged header must not make the
// constructor precompute gigabyte rotation tables before any checksum
// is checked. The encoder's table is 4·(Window+1) hypervectors of Dim
// bits.
func readParamsChecked(cr *crcReader) (Params, error) {
	var p Params
	p.Dim = int(cr.u32())
	p.Window = int(cr.u32())
	p.Stride = int(cr.u32())
	p.Capacity = int(cr.u32())
	p.Approx = cr.u32() == 1
	p.Sealed = cr.u32() == 1
	p.MutTolerance = int(cr.u32())
	p.Alpha = cr.f64()
	p.Beta = cr.f64()
	p.Seed = cr.u64()
	if cr.err != nil {
		return p, fmt.Errorf("core: reading library header: %w", cr.err)
	}
	if err := p.Validate(); err != nil {
		return p, fmt.Errorf("core: loaded parameters invalid: %w", err)
	}
	if p.Dim > 1<<22 {
		return p, fmt.Errorf("core: implausible dimension %d", p.Dim)
	}
	if int64(p.Window+1)*int64(p.Dim) > 1<<29 {
		return p, fmt.Errorf("core: implausible window %d at dimension %d", p.Window, p.Dim)
	}
	if p.Capacity > maxCount || p.Stride > p.Dim {
		return p, fmt.Errorf("core: implausible capacity %d / stride %d", p.Capacity, p.Stride)
	}
	return p, nil
}

// readCalibration deserializes the calibration block.
func readCalibration(cr *crcReader) Calibration {
	var cal Calibration
	cal.NoiseMean = cr.f64()
	cal.NoiseStd = cr.f64()
	cal.SignalMean = cr.f64()
	cal.SignalStd = cr.f64()
	cal.Tau = cr.f64()
	cal.Samples = int(cr.u32())
	return cal
}

// readRefs deserializes the reference table. removedFlag selects the
// v2+ encoding, where a flag marks tombstoned references whose
// sequence is omitted.
func readRefs(cr *crcReader, removedFlag bool) ([]genome.Record, error) {
	nRefs := cr.u32()
	if cr.err == nil && nRefs > maxCount {
		return nil, fmt.Errorf("core: implausible reference count %d", nRefs)
	}
	var refs []genome.Record
	for i := uint32(0); i < nRefs && cr.err == nil; i++ {
		id := cr.str(maxStrLen)
		desc := cr.str(maxStrLen)
		if removedFlag && cr.u32() == 1 {
			// Removed reference: the slot keeps its index, no sequence.
			refs = append(refs, genome.Record{ID: id, Description: desc})
			continue
		}
		n := cr.u64()
		words := cr.words(maxSeqWords)
		if cr.err != nil {
			break
		}
		if uint64(len(words))*32 < n {
			return nil, fmt.Errorf("core: reference %q truncated", id)
		}
		refs = append(refs, genome.Record{
			ID: id, Description: desc,
			Seq: genome.FromPackedWords(words, int(n)),
		})
	}
	return refs, nil
}

// readLibraryV12 deserializes the v1/v2 stream formats. head is the
// already-consumed magic+version prefix, folded into the running CRC.
func readLibraryV12(br *bufio.Reader, head []byte, version int) (*Library, error) {
	cr := &crcReader{r: br, crc: crc32.Update(0, crc32.IEEETable, head)}
	p, err := readParamsChecked(cr)
	if err != nil {
		return nil, err
	}
	lib, err := NewLibrary(p)
	if err != nil {
		return nil, err
	}
	lib.params = p // keep the stored capacity exactly

	cal := readCalibration(cr)
	refs, err := readRefs(cr, version >= 2)
	if err != nil {
		return nil, err
	}
	var segs []Segment

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
		bkts := make([]bucket, 0, nBuckets)
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
			sealed := cr.u32() == 1
			if sealed != p.Sealed {
				if cr.err == nil {
					return nil, fmt.Errorf("core: bucket %d storage mode disagrees with parameters", i)
				}
				break
			}
			if sealed {
				words := cr.words(maxSeqWords)
				if cr.err != nil {
					break
				}
				if len(words)*64 != p.Dim {
					return nil, fmt.Errorf("core: bucket %d has %d words for dimension %d", i, len(words), p.Dim)
				}
				b.sealed = hdc.HVFromWords(words, p.Dim)
			} else {
				nc := cr.u32()
				if cr.err == nil && int(nc) != p.Dim {
					return nil, fmt.Errorf("core: bucket %d has %d counters for dimension %d", i, nc, p.Dim)
				}
				buf := cr.read(int(nc) * 4)
				if buf == nil {
					break
				}
				counts := make([]int32, nc)
				for j := range counts {
					counts[j] = int32(binary.LittleEndian.Uint32(buf[j*4:]))
				}
				n := int(cr.u32())
				acc := hdc.AccFromCounts(counts, n)
				b.acc = acc
				b.sealed = acc.Seal(p.Seed ^ 0x5ea1)
			}
			bkts = append(bkts, b)
		}
		if cr.err != nil {
			break
		}
		if len(bkts) == 0 {
			continue // v1 wrote no empty bucket blocks; v2 never writes empty segments either
		}
		seg := newSegment(bkts, p.Dim, lib.sketch.Words)
		seg.tombs = seg.countTombs(refs)
		segs = append(segs, seg)
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
	// v2 files are only ever written by frozen libraries; a v1 file is
	// frozen iff it holds buckets.
	if version >= 2 || len(segs) > 0 {
		lib.restore(refs, segs, cal)
	} else {
		lib.refs = refs
	}
	return lib, nil
}

// restore publishes a loaded state with the stored calibration —
// loading must not re-derive it.
func (l *Library) restore(refs []genome.Record, segs []Segment, cal Calibration) {
	l.cal = cal
	l.Restore(refs, segs, func(v *View) any {
		sn := newHDCView(v, cal)
		sn.plan = l.scanPlanFor(sn)
		return sn
	})
}

// pinForSave opens a read section on the current view for the writers.
func (l *Library) pinForSave() (*hdcView, error) {
	v := l.snap.Load()
	if v == nil {
		return nil, fmt.Errorf("core: cannot save an unfrozen library")
	}
	if !l.beginRead() {
		return nil, ErrClosed
	}
	return hdcOf(v), nil
}

package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/genome"
)

// The field codecs of the v3 container's sections (io_v3.go,
// container.go): a CRC-teeing field writer, the parameter / calibration
// / reference-table blocks, and the plausibility limits applied to
// untrusted counts. SectionReader (container.go) reads the fields.
const libMagic = "BIOHDLIB"

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

// writeParams serializes the 10 parameter fields.
func writeParams(cw *crcWriter, p *Params) {
	cw.u32(uint32(p.Dim))
	cw.u32(uint32(p.Window))
	cw.u32(uint32(p.Stride))
	cw.u32(uint32(p.Capacity))
	cw.u32(boolU32(p.Approx))
	cw.u32(1) // sealed: the only storage mode
	cw.u32(uint32(p.MutTolerance))
	cw.f64(p.Alpha)
	cw.f64(p.Beta)
	cw.u64(p.Seed)
}

// writeCalibration serializes the calibration block.
func writeCalibration(cw *crcWriter, cal *Calibration) {
	cw.f64(cal.NoiseMean)
	cw.f64(cal.NoiseStd)
	cw.f64(cal.SignalMean)
	cw.f64(cal.SignalStd)
	cw.f64(cal.Tau)
	cw.u32(uint32(cal.Samples))
}

// writeRefs serializes the reference table with removed-flags.
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

// sanity limits for untrusted input: large enough for any realistic
// genome library (a human chromosome is ~8 M packed words), small enough
// that a forged length prefix — in a section whose CRC the forger
// recomputed — cannot trigger a multi-gigabyte allocation.
const (
	maxStrLen   = 1 << 20
	maxSeqWords = 1 << 23 // 268 Mbases per sequence
	maxCount    = 1 << 24
)

var errTrailingData = errors.New("core: trailing data after library checksum")

// ErrRawCounters rejects a library file whose parameter block says its
// buckets are raw counters (a stored Sealed of 0) — a storage mode only
// the v1/v2 streams could hold. Such a file is not converted: its
// calibration is in counter units, so sealing it would also mean
// re-calibrating it.
var ErrRawCounters = errors.New("core: raw-counter library files are no longer read " +
	"(the last commit that reads them is b03c77f); rebuild the library from its references")

// ErrLegacyFormat rejects a v1 or v2 library stream, the formats written
// before the v3 container. Its header is enough to refuse it; nothing
// past the version word is read.
var ErrLegacyFormat = errors.New("core: v1/v2 library files are no longer read " +
	"(the last commit that reads them is 562a5cc); run `biohd convert -lib FILE -o FILE.v3` there to rewrite one as v3")

// expectEOF asserts the stream is exhausted — a container ends at its
// recorded size, so a readable byte here means trailing garbage (or a
// concatenated second file) that must not silently pass.
func expectEOF(br *bufio.Reader) error {
	switch _, err := br.ReadByte(); err {
	case io.EOF:
		return nil
	case nil:
		return errTrailingData
	default:
		return fmt.Errorf("core: reading library: %w", err)
	}
}

// readParamsChecked deserializes and validates the parameter block,
// including plausibility caps: a forged header must not make the
// constructor precompute gigabyte rotation tables before any checksum
// is checked. The encoder's table is 4·(Window+1) hypervectors of Dim
// bits.
func readParamsChecked(sr *SectionReader) (Params, error) {
	var p Params
	p.Dim = int(sr.U32())
	p.Window = int(sr.U32())
	p.Stride = int(sr.U32())
	p.Capacity = int(sr.U32())
	p.Approx = sr.U32() == 1
	sealed := sr.U32() == 1
	p.MutTolerance = int(sr.U32())
	p.Alpha = sr.F64()
	p.Beta = sr.F64()
	p.Seed = sr.U64()
	if sr.err != nil {
		return p, fmt.Errorf("core: reading library header: %w", sr.err)
	}
	if !sealed {
		return p, ErrRawCounters
	}
	p.Sealed = true
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
func readCalibration(sr *SectionReader) Calibration {
	var cal Calibration
	cal.NoiseMean = sr.F64()
	cal.NoiseStd = sr.F64()
	cal.SignalMean = sr.F64()
	cal.SignalStd = sr.F64()
	cal.Tau = sr.F64()
	cal.Samples = int(sr.U32())
	return cal
}

// readRefs deserializes the reference table, where a flag marks
// tombstoned references whose sequence is omitted.
func readRefs(sr *SectionReader) ([]genome.Record, error) {
	nRefs := sr.U32()
	if sr.err == nil && nRefs > maxCount {
		return nil, fmt.Errorf("core: implausible reference count %d", nRefs)
	}
	var refs []genome.Record
	for i := uint32(0); i < nRefs && sr.err == nil; i++ {
		id := sr.Str()
		desc := sr.Str()
		if sr.U32() == 1 {
			// Removed reference: the slot keeps its index, no sequence.
			refs = append(refs, genome.Record{ID: id, Description: desc})
			continue
		}
		n := sr.U64()
		words := sr.Words(maxSeqWords)
		if sr.err != nil {
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

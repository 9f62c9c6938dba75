package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/genome"
)

// The field codecs of the v3 container's sections (io_v3.go,
// container.go): a field writer that appends to a section's bytes, the
// parameter / calibration / reference-table blocks, and the
// plausibility limits applied to untrusted counts. SectionReader
// (container.go) reads the fields.
const libMagic = "BIOHDLIB"

// fieldWriter appends little-endian fields to the bytes of one
// CRC-covered section; sealed takes the section's CRC once, over the
// finished bytes.
type fieldWriter struct {
	b []byte
}

func (fw *fieldWriter) u32(v uint32) { fw.b = binary.LittleEndian.AppendUint32(fw.b, v) }

func (fw *fieldWriter) u64(v uint64) { fw.b = binary.LittleEndian.AppendUint64(fw.b, v) }

func (fw *fieldWriter) f64(v float64) { fw.u64(math.Float64bits(v)) }

func (fw *fieldWriter) str(s string) {
	fw.u32(uint32(len(s)))
	fw.b = append(fw.b, s...)
}

func (fw *fieldWriter) words(ws []uint64) {
	fw.u32(uint32(len(ws)))
	fw.b = slices.Grow(fw.b, 8*len(ws))
	for _, w := range ws {
		fw.b = binary.LittleEndian.AppendUint64(fw.b, w)
	}
}

// sealed returns the section's bytes with their CRC32 appended.
func (fw *fieldWriter) sealed() []byte {
	return binary.LittleEndian.AppendUint32(fw.b, crc32.ChecksumIEEE(fw.b))
}

// writeParams serializes the 10 parameter fields.
func writeParams(fw *fieldWriter, p *Params) {
	fw.u32(uint32(p.Dim))
	fw.u32(uint32(p.Window))
	fw.u32(uint32(p.Stride))
	fw.u32(uint32(p.Capacity))
	fw.u32(boolU32(p.Approx))
	fw.u32(1) // sealed: the only storage mode
	fw.u32(uint32(p.MutTolerance))
	fw.f64(p.Alpha)
	fw.f64(p.Beta)
	fw.u64(p.Seed)
}

// writeCalibration serializes the calibration block.
func writeCalibration(fw *fieldWriter, cal *Calibration) {
	fw.f64(cal.NoiseMean)
	fw.f64(cal.NoiseStd)
	fw.f64(cal.SignalMean)
	fw.f64(cal.SignalStd)
	fw.f64(cal.Tau)
	fw.u32(uint32(cal.Samples))
}

// writeRefs serializes the reference table with removed-flags.
func writeRefs(fw *fieldWriter, refs []genome.Record) {
	fw.u32(uint32(len(refs)))
	for _, rec := range refs {
		fw.str(rec.ID)
		fw.str(rec.Description)
		if rec.Seq == nil {
			fw.u32(1) // removed: tombstone keeps the slot, drops the bases
			continue
		}
		fw.u32(0)
		fw.u64(uint64(rec.Seq.Len()))
		fw.words(rec.Seq.PackedWords())
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

// Package mmapfile memory-maps read-only files for the zero-copy
// library tier: a v3 library file's sealed-segment arenas are mapped
// into the process and scanned in place, so startup copies nothing and
// the resident footprint is whatever the kernel keeps paged in — the
// hot set, not the library size.
//
// The package is deliberately tiny: read-only whole-file mappings plus
// the madvise hints the library lifecycle uses (WILLNEED when a mapped
// segment is opened or promoted hot, DONTNEED when compaction retires
// one). On platforms without mmap support — or under the purego build
// tag, which strips every platform-specific fast path in this repo —
// Open returns ErrUnsupported and callers fall back to a heap load.
// The two unsafe views live here as well: AsWords (bytes as words) and
// WordBytes (words as bytes), so a heap load reads into word-backed
// memory and hands out its arenas exactly as a mapped open does.
package mmapfile

import (
	"errors"
	"fmt"
	"unsafe"
)

// ErrUnsupported is returned by Open on platforms (or build
// configurations) without mmap support; callers fall back to reading
// the file into the heap.
var ErrUnsupported = errors.New("mmapfile: not supported on this platform")

// Advice is a paging hint forwarded to madvise(2) where available.
type Advice int

const (
	// AdviseNormal restores the kernel's default readahead behaviour.
	AdviseNormal Advice = iota
	// AdviseWillNeed asks the kernel to fault the range in ahead of
	// use — applied to a segment arena about to be scanned.
	AdviseWillNeed
	// AdviseDontNeed tells the kernel the range is cold and its pages
	// may be reclaimed first — applied to arenas of retired (compacted
	// or tombstone-heavy) segments. The mapping stays valid; touching
	// the range again just refaults from the file.
	AdviseDontNeed
	// AdviseSequential hints a front-to-back streaming read — the
	// access pattern of a full-arena CRC verification pass.
	AdviseSequential
)

// Mapping is one read-only, whole-file memory mapping.
type Mapping struct {
	data []byte
}

// Open maps the file at path read-only in its entirety. An empty file
// maps to an empty (nil-data) mapping. On unsupported platforms it
// returns ErrUnsupported.
func Open(path string) (*Mapping, error) {
	return openMapping(path)
}

// Supported reports whether this build can actually map files; false
// means Open always returns ErrUnsupported.
func Supported() bool { return supported }

// Bytes exposes the mapped file contents. The slice aliases the
// mapping: it is read-only (writes fault) and must not be used after
// Close.
func (m *Mapping) Bytes() []byte { return m.data }

// Len returns the mapped length in bytes.
func (m *Mapping) Len() int { return len(m.data) }

// Advise forwards a paging hint for data[off:off+n] to the kernel.
// Hints are best-effort: the range is rounded outward to page
// boundaries and errors are only returned for out-of-range requests,
// never for an indifferent kernel.
func (m *Mapping) Advise(off, n int, adv Advice) error {
	if off < 0 || n < 0 || off+n > len(m.data) {
		return fmt.Errorf("mmapfile: advise range [%d,%d) outside mapping of %d bytes", off, off+n, len(m.data))
	}
	if n == 0 {
		return nil
	}
	return m.advise(off, n, adv)
}

// Resident reports how many bytes of data[off:off+n] are currently
// resident in physical memory, via mincore(2) where available. The
// count is page-granular: a partially-counted page contributes only
// the bytes that overlap the requested range. On platforms without
// mincore (or under the purego tag) it returns ErrUnsupported, and
// callers fall back to a coarser gauge.
func (m *Mapping) Resident(off, n int) (int64, error) {
	if off < 0 || n < 0 || off+n > len(m.data) {
		return 0, fmt.Errorf("mmapfile: resident range [%d,%d) outside mapping of %d bytes", off, off+n, len(m.data))
	}
	if n == 0 {
		return 0, nil
	}
	return m.resident(off, n)
}

// Close unmaps the file. The caller must guarantee no goroutine still
// reads the mapped bytes — aliases (Bytes, AsWords views) fault after
// Close. Idempotent.
func (m *Mapping) Close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	return unmap(data)
}

// AsWords reinterprets a byte range — of a mapping, or of WordBytes
// memory — as []uint64 without copying. The bytes must be 8-byte
// aligned and a multiple of 8 long; the words carry the file's
// little-endian layout, so callers must have checked HostLittleEndian
// before treating them as host integers. The returned slice aliases b:
// for a mapping, read-only and invalid after Close.
func AsWords(b []byte) ([]uint64, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mmapfile: %d bytes is not a whole number of 64-bit words", len(b))
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil, fmt.Errorf("mmapfile: byte range is not 8-byte aligned")
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8), nil
}

// WordBytes is the inverse view: the bytes of a word slice, without
// copying. A heap loader reads a file into word-backed memory through
// it, so the arenas it then hands out via AsWords are aligned and
// aliased exactly like mapped ones.
func WordBytes(w []uint64) []byte {
	if len(w) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), len(w)*8)
}

// HostLittleEndian reports whether the host stores integers
// little-endian — the on-disk word order of the library format. On a
// big-endian host a zero-copy arena view would read scrambled words,
// so callers do not map there: they heap-load and byte-swap the words
// in place.
func HostLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

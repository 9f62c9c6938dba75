package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/mmapfile"
)

// The v3 container carries a backend tag so one file format serves
// every index backend: the tag appears in the header's trailing word
// (bytes [60,64), outside the header CRC — it selects the backend) and,
// authoritatively, as the CRC-covered leading word of the meta section
// plus the reserved word of every CRC-protected directory entry. The
// meta copy exists whatever the segment count, so even an empty
// container has a protected tag. The walk requires the protected copies
// to repeat the header's, so a flipped header tag surfaces as a clean
// error, never a panic or a misinterpreted arena. The HDC library is
// tag 0 and registers here like any other backend (io_v3.go).
const backendTagHDC uint32 = 0

// backendEntry is one registered backend.
type backendEntry struct {
	name string
	// parseMeta decodes the backend's meta payload (the section reader
	// is positioned after the leading tag word) of a container with
	// segCount segments, validating what only the backend can, and
	// returns the loader the container walk finishes the open through.
	parseMeta func(sr *SectionReader, segCount int) (ContainerLoader, error)
}

var (
	backendMu sync.RWMutex
	backends  = map[uint32]backendEntry{}
)

// RegisterBackend registers an index backend for v3 files tagged with
// tag: ReadIndex and OpenLibraryFile hand matching files' metadata to
// parseMeta. Registration happens in a backend package's init;
// duplicate tags or names panic — they are wiring bugs, not runtime
// conditions.
func RegisterBackend(tag uint32, name string, parseMeta func(sr *SectionReader, segCount int) (ContainerLoader, error)) {
	backendMu.Lock()
	defer backendMu.Unlock()
	if name == "" || parseMeta == nil {
		panic("core: RegisterBackend requires a name and a meta parser")
	}
	if prev, ok := backends[tag]; ok {
		panic(fmt.Sprintf("core: backend tag %d already registered as %q", tag, prev.name))
	}
	for t, e := range backends {
		if e.name == name {
			panic(fmt.Sprintf("core: backend name %q already registered as tag %d", name, t))
		}
	}
	backends[tag] = backendEntry{name: name, parseMeta: parseMeta}
}

func lookupBackend(tag uint32) (backendEntry, bool) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	e, ok := backends[tag]
	return e, ok
}

// BackendName names a v3 backend tag: the registered name for known
// tags, a descriptive placeholder otherwise.
func BackendName(tag uint32) string {
	if e, ok := lookupBackend(tag); ok {
		return e.name
	}
	return fmt.Sprintf("unknown(tag %d)", tag)
}

// RegisteredBackends lists the selectable backend names in tag order
// ("hdc" first), for CLI flag validation and usage strings.
func RegisteredBackends() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	tags := make([]uint32, 0, len(backends))
	for t := range backends {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	out := make([]string, len(tags))
	for i, t := range tags {
		out[i] = backends[t].name
	}
	return out
}

// ReadIndex deserializes an index saved as a v3 container into the
// heap, verifying every checksum; the result is frozen and answers
// exactly as the index that was saved. The container's backend tag
// selects the backend (unknown tags are an error); a v1/v2 stream is
// refused with ErrLegacyFormat. Bytes following the container's
// recorded end are rejected.
func ReadIndex(r io.Reader) (Index, error) {
	return readIndex(r, 0)
}

// readIndex is ReadIndex for an input of which size bytes are known to
// exist (0 = unknown), so v3 sections within that bound are allocated
// at once. It reads the magic and version first, and no further
// unless checkHead passes them.
func readIndex(r io.Reader, size uint64) (Index, error) {
	var head [libHeadLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, errNotLibrary
	}
	if err := checkHead(head[:]); err != nil {
		return nil, err
	}
	br := bufio.NewReader(io.MultiReader(bytes.NewReader(head[:]), r))
	return readContainerV3(&streamSource{br: br, avail: size}, nil)
}

// libHeadLen is the length of the magic and version word every BioHD
// library file starts with.
const libHeadLen = len(libMagic) + 4

var errNotLibrary = errors.New("core: not a BioHD library file")

// checkHead is the format check both storage tiers make before the
// container walk: head must start with the magic and version 3.
func checkHead(head []byte) error {
	if len(head) < libHeadLen || string(head[:len(libMagic)]) != libMagic {
		return errNotLibrary
	}
	switch version := binary.LittleEndian.Uint32(head[len(libMagic):]); version {
	case libVersionMapped:
		return nil
	case 1, 2:
		return ErrLegacyFormat
	default:
		return fmt.Errorf("core: unsupported library version %d", version)
	}
}

// MapSupported reports whether MapArena maps v3 files on this platform
// and build: the platform can map, and the host is little-endian like
// the file's words. Where it is false every open is a heap load.
func MapSupported() bool { return mmapfile.Supported() && mmapfile.HostLittleEndian() }

// OpenLibraryFile loads an index file from disk, whatever its backend.
// With MapArena the arenas alias a read-only mapping — verify with
// Index.Mapped — and the caller must Close the index to unmap; where
// the platform (or purego build) cannot map or the host is not
// little-endian (the on-disk word order), it loads onto the heap as
// LoadHeap does. Both tiers make the same header check and run the
// same walk, so they accept exactly the same files. Close is harmless
// (and still recommended) for heap-loaded indexes.
func OpenLibraryFile(path string, mode LoadMode) (Index, error) {
	if mode == MapArena && MapSupported() {
		m, err := mmapfile.Open(path)
		if err != nil {
			return nil, err
		}
		if err := checkHead(m.Bytes()); err != nil {
			_ = m.Close()
			return nil, err
		}
		// The walk streams every arena front to back for its CRC; tell
		// the kernel so readahead keeps up, then mark the file wanted so
		// what was verified stays warm for the first probes. Hints are
		// best-effort.
		_ = m.Advise(0, m.Len(), mmapfile.AdviseSequential)
		idx, err := readContainerV3(&mappedSource{m: m}, m)
		if err != nil {
			_ = m.Close()
			return nil, err
		}
		_ = m.Advise(0, m.Len(), mmapfile.AdviseWillNeed)
		return idx, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var size uint64
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		size = uint64(fi.Size())
	}
	return readIndex(f, size)
}

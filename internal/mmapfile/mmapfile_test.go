package mmapfile

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenReadsFileContents(t *testing.T) {
	want := []byte("hyperdimensional")
	path := writeTemp(t, want)

	m, err := Open(path)
	if !Supported() {
		if err != ErrUnsupported {
			t.Fatalf("unsupported build: Open err = %v, want ErrUnsupported", err)
		}
		t.Skip("mmap not supported in this build")
	}
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if !bytes.Equal(m.Bytes(), want) {
		t.Fatalf("Bytes() = %q, want %q", m.Bytes(), want)
	}
	if m.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", m.Len(), len(want))
	}
}

func TestOpenEmptyFile(t *testing.T) {
	if !Supported() {
		t.Skip("mmap not supported in this build")
	}
	m, err := Open(writeTemp(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", m.Len())
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Open of missing file succeeded")
	}
}

func TestCloseIdempotent(t *testing.T) {
	if !Supported() {
		t.Skip("mmap not supported in this build")
	}
	m, err := Open(writeTemp(t, []byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

func TestAdvise(t *testing.T) {
	if !Supported() {
		t.Skip("mmap not supported in this build")
	}
	data := make([]byte, 8192)
	m, err := Open(writeTemp(t, data))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	for _, adv := range []Advice{AdviseNormal, AdviseWillNeed, AdviseDontNeed, AdviseSequential} {
		if err := m.Advise(100, 4000, adv); err != nil {
			t.Fatalf("Advise(%v) = %v", adv, err)
		}
	}
	if err := m.Advise(0, 0, AdviseWillNeed); err != nil {
		t.Fatalf("zero-length Advise = %v", err)
	}
	if err := m.Advise(-1, 10, AdviseWillNeed); err == nil {
		t.Fatal("negative offset Advise succeeded")
	}
	if err := m.Advise(8000, 1000, AdviseWillNeed); err == nil {
		t.Fatal("out-of-range Advise succeeded")
	}

	// DONTNEED must not invalidate the mapping — the range refaults
	// from the (zero-filled) file.
	if m.Bytes()[4096] != 0 {
		t.Fatal("mapping unreadable after DONTNEED")
	}
}

func TestAsWords(t *testing.T) {
	// Back the buffer with a []uint64 so it is 8-byte aligned — a bare
	// make([]byte, n) only guarantees byte alignment.
	backing := make([]uint64, 3)
	buf := WordBytes(backing)
	if len(buf) != 24 || unsafe.Pointer(&buf[0]) != unsafe.Pointer(&backing[0]) {
		t.Fatalf("WordBytes returned %d bytes at %p, want 24 aliasing %p", len(buf), &buf[0], &backing[0])
	}
	if WordBytes(nil) != nil {
		t.Fatal("WordBytes(nil) is not nil")
	}
	binary.LittleEndian.PutUint64(buf[0:], 0x0123456789abcdef)
	binary.LittleEndian.PutUint64(buf[8:], 42)
	binary.LittleEndian.PutUint64(buf[16:], ^uint64(0))

	words, err := AsWords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !HostLittleEndian() {
		t.Skip("word values only meaningful on little-endian hosts")
	}
	want := []uint64{0x0123456789abcdef, 42, ^uint64(0)}
	for i, w := range want {
		if words[i] != w {
			t.Fatalf("words[%d] = %#x, want %#x", i, words[i], w)
		}
	}

	if _, err := AsWords(buf[:20]); err == nil {
		t.Fatal("AsWords accepted a non-multiple-of-8 length")
	}
	if _, err := AsWords(buf[1:17]); err == nil {
		t.Fatal("AsWords accepted a misaligned slice")
	}
	if w, err := AsWords(nil); err != nil || w != nil {
		t.Fatalf("AsWords(nil) = %v, %v", w, err)
	}
}

package core

import (
	"testing"
)

// TestResidentBytesHeap pins the heap-tier fallback: without a
// mapping, the resident gauge is the heap footprint itself.
func TestResidentBytesHeap(t *testing.T) {
	lib, _ := buildExactLib(t, 2000, 411)
	if got, want := lib.Describe().ResidentBytes, lib.MemoryFootprint(); got != want {
		t.Fatalf("heap resident %d != footprint %d", got, want)
	}
}

// TestResidentBytesMapped pins the mmap tier: after lookups touch the
// arena, the mincore-backed count is positive and never exceeds the
// mapped length (plus falls back to the mapped length where mincore
// is unavailable).
func TestResidentBytesMapped(t *testing.T) {
	lib, ref := buildExactLib(t, 2000, 412)
	path := writeV3File(t, lib)
	mapped := openLib(t, path, MapArena)
	defer mapped.Close()
	if !mapped.Mapped() {
		if !MapSupported() {
			t.Skip("platform cannot map; heap fallback covered elsewhere")
		}
		t.Fatal("MapArena fell back to heap on a supported platform")
	}
	// Fault the arena in by answering a real query.
	w := mapped.Params().Window
	if _, _, err := mapped.Lookup(ref.Slice(100, 100+w)); err != nil {
		t.Fatal(err)
	}
	got := mapped.Describe().ResidentBytes
	if got <= 0 {
		t.Fatalf("mapped resident bytes %d, want > 0", got)
	}
	if mb := mapped.Describe().MappedBytes; got > mb {
		t.Fatalf("resident %d exceeds mapped %d", got, mb)
	}
}

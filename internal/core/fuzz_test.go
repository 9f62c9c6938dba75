package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

// FuzzReadLibrary feeds arbitrary bytes to the index loader on both
// storage tiers: it must reject garbage with an error, never a panic or
// an allocation the input does not back, must keep accepting the
// canonical serialized forms, and the stream and mapped opens — one
// walk over two byte sources — must agree on everything.
func FuzzReadLibrary(f *testing.F) {
	// Seed with the checked-in v3 golden (written by an earlier commit)
	// plus structured corruptions, and the 12-byte headers of the v1/v2
	// streams the loader refuses.
	valid, err := os.ReadFile(filepath.Join("testdata", "golden_v3_sealed.lib"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	// The one-window-a-row golden, whose rows the file stores whole, and
	// the same file claiming rows of neither width a segment can have.
	c1, err := os.ReadFile(filepath.Join("testdata", "golden_v3_c1.lib"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(c1)
	f.Add(forgeRowWidth(c1, 32))
	f.Add([]byte("BIOHDLIB"))
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	mut[20] ^= 0xff
	f.Add(mut)
	f.Add(legacyHeader(1))
	f.Add(legacyHeader(2))
	// The v3 container, plus structured corruptions of its sections:
	// truncated header, truncated arenas, flipped meta byte.
	lib, err := NewLibrary(Params{Dim: 1024, Window: 16, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	if err := lib.Add(genome.Record{ID: "r", Seq: genome.Random(200, rng.New(2))}); err != nil {
		f.Fatal(err)
	}
	lib.Freeze()
	valid3 := writeV3Bytes(f, lib)
	f.Add(valid3)
	f.Add(valid3[:40])
	f.Add(valid3[:len(valid3)-32])
	mut3 := append([]byte(nil), valid3...)
	mut3[v3HeaderSize+8] ^= 0xff
	f.Add(mut3)
	// Backend-tagged variants: the header's trailing word retagged to
	// another backend (the protected copies still carry the HDC tag) and
	// to an unregistered tag.
	for _, tag := range []byte{1, 99} {
		ret := append([]byte(nil), valid3...)
		ret[60] = tag
		f.Add(ret)
	}
	// The meta section's leading tag word flipped while the header keeps
	// the HDC tag — the CRC-protected copy must win.
	metaTag := append([]byte(nil), valid3...)
	metaTag[v3HeaderSize] ^= 0x01
	f.Add(metaTag)
	// A self-consistent directory claiming 2^32-1 buckets over the same
	// few KiB of arena.
	f.Add(forgeHugeDirectory(valid3))
	// Every checksum intact, but the parameters claim raw counters.
	f.Add(rawCounterV3(valid3))
	// A routed library whose groups filled buckets, and its group tables
	// made hostile under intact checksums.
	routed := routedFuzzLibrary(f)
	routedBytes := writeV3Bytes(f, routed)
	f.Add(routedBytes)
	hostile := hostileGroupTables(routedBytes, routed.groups)
	names := make([]string, 0, len(hostile))
	for name := range hostile {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		f.Add(hostile[name])
	}

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := ReadIndex(bytes.NewReader(data))
		if err == nil {
			checkAccepted(t, idx)
		}
		if !MapSupported() {
			return
		}
		path := filepath.Join(dir, "fuzz.lib")
		if werr := os.WriteFile(path, data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		mapped, merr := OpenLibraryFile(path, MapArena)
		if (err == nil) != (merr == nil) {
			t.Fatalf("tiers disagree: stream %v, mapped %v", err, merr)
		}
		if err != nil {
			return // both rejected cleanly
		}
		defer mapped.Close()
		checkAccepted(t, mapped)
		var a, b bytes.Buffer
		_, aerr := idx.WriteToV3(&a)
		_, berr := mapped.WriteToV3(&b)
		if (aerr == nil) != (berr == nil) || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("tiers re-serialize differently: %v / %v, %d vs %d bytes", aerr, berr, a.Len(), b.Len())
		}
		p := genome.Random(idx.Describe().Window, rng.New(7))
		m1, s1, e1 := idx.Lookup(p)
		m2, s2, e2 := mapped.Lookup(p)
		if (e1 == nil) != (e2 == nil) || s1 != s2 || !reflect.DeepEqual(m1, m2) {
			t.Fatalf("tiers answer differently: %v %+v %v vs %v %+v %v", m1, s1, e1, m2, s2, e2)
		}
	})
}

// checkAccepted holds anything a loader accepted to internal
// consistency: named, and for the HDC library non-empty with balanced
// window bookkeeping.
func checkAccepted(t *testing.T, idx Index) {
	t.Helper()
	if idx.Describe().Backend == "" {
		t.Fatal("accepted an index with no backend name")
	}
	lib, ok := idx.(*Library)
	if !ok {
		return
	}
	if lib.Describe().Buckets == 0 {
		t.Fatal("accepted library with no buckets")
	}
	total := 0
	for i := 0; i < lib.Describe().Buckets; i++ {
		total += len(lib.BucketWindows(i))
	}
	if total != lib.NumWindows() {
		t.Fatalf("window bookkeeping inconsistent: %d vs %d", total, lib.NumWindows())
	}
}

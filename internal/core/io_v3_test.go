package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

// writeV3Bytes serializes a library in the v3 mappable format.
func writeV3Bytes(t testing.TB, lib *Library) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := lib.WriteToV3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteToV3 reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// writeV3File writes a library's v3 serialization into a temp file.
func writeV3File(t *testing.T, lib *Library) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lib.v3")
	if err := os.WriteFile(path, writeV3Bytes(t, lib), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openLib opens a library file and asserts the HDC concrete type —
// these tests exercise Library-specific surfaces (BucketVector,
// Params) beyond the Index contract.
func openLib(t *testing.T, path string, mode LoadMode) *Library {
	t.Helper()
	idx, err := OpenLibraryFile(path, mode)
	if err != nil {
		t.Fatal(err)
	}
	lib, ok := idx.(*Library)
	if !ok {
		t.Fatalf("OpenLibraryFile returned %T, want *Library", idx)
	}
	return lib
}

// requireSameAnswers asserts two libraries return byte-identical bucket
// vectors and identical lookup results for windows of ref.
func requireSameAnswers(t *testing.T, want, got *Library, ref *genome.Sequence, offs []int) {
	t.Helper()
	if got.Describe().Buckets != want.Describe().Buckets || got.NumWindows() != want.NumWindows() {
		t.Fatalf("shape changed: %d/%d vs %d/%d",
			got.Describe().Buckets, got.NumWindows(), want.Describe().Buckets, want.NumWindows())
	}
	for i := 0; i < want.Describe().Buckets; i++ {
		if !want.BucketVector(i).Equal(got.BucketVector(i)) {
			t.Fatalf("bucket %d vector differs", i)
		}
	}
	w := want.Params().Window
	for _, off := range offs {
		pat := ref.Slice(off, off+w)
		m1, s1, err1 := want.Lookup(pat)
		m2, s2, err2 := got.Lookup(pat)
		if err1 != nil || err2 != nil {
			t.Fatalf("off %d: lookup errors %v / %v", off, err1, err2)
		}
		if len(m1) != len(m2) || s1 != s2 {
			t.Fatalf("off %d: answers diverge: %v/%v vs %v/%v", off, m1, s1, m2, s2)
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				t.Fatalf("off %d match %d differs: %+v vs %+v", off, i, m1[i], m2[i])
			}
		}
	}
}

func TestV3RoundTripStream(t *testing.T) {
	lib, ref := buildExactLib(t, 2000, 151)
	back := readLib(t, writeV3Bytes(t, lib))
	if back.Mapped() {
		t.Fatal("stream-loaded library claims to be mapped")
	}
	requireSameAnswers(t, lib, back, ref, []int{0, 777, 1500, 2000 - 32})
}

func TestV3RoundTripApproxKeepsCalibration(t *testing.T) {
	lib := buildApproxLib(t, 1500, 152)
	back := readLib(t, writeV3Bytes(t, lib))
	c1, ok1 := lib.Calibration()
	c2, ok2 := back.Calibration()
	if !ok1 || !ok2 || c1 != c2 {
		t.Fatalf("calibration lost: %+v vs %+v", c1, c2)
	}
	if lib.Describe().Threshold != back.Describe().Threshold {
		t.Fatal("operating thresholds differ")
	}
}

var errDiskFull = errors.New("disk full")

// failAfter accepts left bytes, then fails every write.
type failAfter struct{ left int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) <= w.left {
		w.left -= len(p)
		return len(p), nil
	}
	n := w.left
	w.left = 0
	return n, errDiskFull
}

// TestWriteToV3FailingWriter: a failed write is the save's error,
// wherever it surfaces. The library is small enough that the writer's
// buffer holds the whole file, so a writer that refuses only the last
// byte fails in the final flush and nowhere else.
func TestWriteToV3FailingWriter(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 512, Window: 32, Seed: 155})
	if err := lib.Add(genome.Record{ID: "r", Seq: genome.Random(100, rng.New(156))}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	size := len(writeV3Bytes(t, lib))
	for _, left := range []int{0, size / 2, size - 1} {
		if _, err := lib.WriteToV3(&failAfter{left: left}); !errors.Is(err, errDiskFull) {
			t.Fatalf("writer failing after %d of %d bytes: WriteToV3 returned %v", left, size, err)
		}
	}
}

// TestV3RejectsUnsealedAndUnfrozen: an unfrozen library is not saved,
// and a file whose parameters claim raw counters is not opened.
func TestV3RejectsUnsealedAndUnfrozen(t *testing.T) {
	var buf bytes.Buffer
	unfrozen := mustLibrary(t, Params{Dim: 1024, Window: 16, Seed: 153})
	if _, err := unfrozen.WriteToV3(&buf); err == nil {
		t.Fatal("unfrozen library saved as v3")
	}
	lib, _ := buildExactLib(t, 300, 155)
	if _, err := ReadIndex(bytes.NewReader(rawCounterV3(writeV3Bytes(t, lib)))); !errors.Is(err, ErrRawCounters) {
		t.Fatalf("v3 file claiming raw counters: %v, want ErrRawCounters", err)
	}
}

// rawCounterV3 returns a copy of a v3 file with its parameter block's
// Sealed word set to 0 and the metadata CRC recomputed over the change:
// the one way a raw-counter library can reach the v3 reader.
func rawCounterV3(valid []byte) []byte {
	raw := append([]byte(nil), valid...)
	metaLen := binary.LittleEndian.Uint64(raw[24:32])
	meta := raw[v3HeaderSize : v3HeaderSize+metaLen]
	// The backend tag, then Dim, Window, Stride, Capacity, Approx, Sealed.
	binary.LittleEndian.PutUint32(meta[4+5*4:], 0)
	binary.LittleEndian.PutUint32(meta[metaLen-4:], crc32.ChecksumIEEE(meta[:metaLen-4]))
	return raw
}

func TestV3MappedEqualsHeap(t *testing.T) {
	lib, ref := buildExactLib(t, 2000, 156)
	path := writeV3File(t, lib)
	heap := openLib(t, path, LoadHeap)
	defer heap.Close()
	if heap.Mapped() {
		t.Fatal("LoadHeap produced a mapped library")
	}
	mapped := openLib(t, path, MapArena)
	defer mapped.Close()
	if MapSupported() {
		if !mapped.Mapped() {
			t.Fatal("MapArena fell back to heap on a supported platform")
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if mapped.Describe().MappedBytes != fi.Size() {
			t.Fatalf("MappedBytes %d, file is %d bytes", mapped.Describe().MappedBytes, fi.Size())
		}
	}
	requireSameAnswers(t, heap, mapped, ref, []int{0, 777, 1500, 2000 - 32})
	// The per-tier scan counters must attribute the work to the right
	// storage tier.
	if c := heap.Counters(); c.MappedScans != 0 || c.HeapScans == 0 {
		t.Fatalf("heap library counters: mapped=%d heap=%d", c.MappedScans, c.HeapScans)
	}
	if mapped.Mapped() {
		if c := mapped.Counters(); c.MappedScans == 0 || c.HeapScans != 0 {
			t.Fatalf("mapped library counters: mapped=%d heap=%d", c.MappedScans, c.HeapScans)
		}
	}
}

// TestV3MappedUnderConcurrentMutation pins mapped ≡ heap while the
// library changes underneath the readers: live ingest, Remove, and
// Compact land as snapshot swaps on both libraries while goroutines
// hammer lookups on the mapped one, and the final answers must match a
// heap twin that took the same mutations.
func TestV3MappedUnderConcurrentMutation(t *testing.T) {
	lib, ref := buildExactLib(t, 1600, 158)
	path := writeV3File(t, lib)
	heap := openLib(t, path, LoadHeap)
	defer heap.Close()
	mapped := openLib(t, path, MapArena)
	defer mapped.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	pat := ref.Slice(300, 332)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := mapped.Lookup(pat); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Same mutation sequence on both libraries, while lookups run.
	extra := genome.Random(900, rng.New(159))
	for _, l := range []*Library{mapped, heap} {
		if err := l.Add(genome.Record{ID: "extra", Seq: extra}); err != nil {
			t.Fatal(err)
		}
		if err := l.Remove(0); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Compact(0); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// The original reference is gone; the ingested one answers.
	requireSameAnswers(t, heap, mapped, extra, []int{0, 444, 900 - 32})
	if m, _, err := mapped.Lookup(pat); err != nil || len(m) != 0 {
		t.Fatalf("removed reference still matches: %v (err %v)", m, err)
	}
}

// TestV3CloseDrainsReaders pins the unmap lifecycle: Close blocks until
// in-flight probes drain, later operations fail with ErrClosed, and
// nothing faults on the unmapped pages.
func TestV3CloseDrainsReaders(t *testing.T) {
	lib, ref := buildExactLib(t, 1600, 160)
	path := writeV3File(t, lib)
	mapped := openLib(t, path, MapArena)
	if !mapped.Mapped() {
		t.Skip("platform cannot map; drain path not reachable")
	}
	pat := ref.Slice(500, 532)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, _, err := mapped.Lookup(pat); err != nil {
					if err != ErrClosed {
						t.Errorf("lookup during close: %v", err)
					}
					return
				}
			}
		}()
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := mapped.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := mapped.Lookup(pat); err != ErrClosed {
		t.Fatalf("Lookup after Close: %v", err)
	}
	if err := mapped.Remove(0); err != ErrClosed {
		t.Fatalf("Remove after Close: %v", err)
	}
	if v := mapped.BucketVector(0); v != nil {
		t.Fatal("BucketVector after Close returned mapped storage")
	}
}

// TestStaleBucketIndexAfterCompact replays probe candidates across a
// Compact that shrank the library: the stale global indices must come
// back empty from the public accessors, never panic.
func TestStaleBucketIndexAfterCompact(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 8192, Window: 32, Seed: 161})
	for i, n := range []int{900, 900} {
		seq := genome.Random(n, rng.New(uint64(162+i)))
		if err := lib.Add(genome.Record{ID: string(rune('a' + i)), Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	lib.Freeze()
	ref := lib.Ref(0).Seq
	hv := lib.Encoder().EncodeWindowExact(ref, 100)
	var stats Stats
	cands, err := lib.Probe(hv, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("probe found no candidates")
	}
	before := lib.Describe().Buckets
	if err := lib.Remove(0); err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Compact(0); err != nil {
		t.Fatal(err)
	}
	if lib.Describe().Buckets >= before {
		t.Fatalf("compact did not shrink the library (%d -> %d buckets)", before, lib.Describe().Buckets)
	}
	// Replay every stale candidate plus the extremes; out-of-range must
	// return zero values, in-range must answer normally.
	idxs := []int{-1, before - 1, before, lib.Describe().Buckets, 1 << 30}
	for _, c := range cands {
		idxs = append(idxs, c.Bucket)
	}
	for _, i := range idxs {
		wins := lib.BucketWindows(i)
		vec := lib.BucketVector(i)
		if i < 0 || i >= lib.Describe().Buckets {
			if wins != nil || vec != nil {
				t.Fatalf("stale index %d returned data", i)
			}
		} else if vec == nil {
			t.Fatalf("live index %d returned nil vector", i)
		}
	}
	// Unfrozen libraries bounds-check the active path too.
	fresh := mustLibrary(t, Params{Dim: 1024, Window: 16, Seed: 164})
	if err := fresh.Add(genome.Record{ID: "r", Seq: genome.Random(200, rng.New(165))}); err != nil {
		t.Fatal(err)
	}
	if wins := fresh.BucketWindows(1 << 20); wins != nil {
		t.Fatal("unfrozen out-of-range BucketWindows returned data")
	}
}

func TestTrailingDataRejectedV3(t *testing.T) {
	lib, _ := buildExactLib(t, 800, 167)
	data := append(writeV3Bytes(t, lib), 0x00)
	if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
		t.Fatal("v3 stream with trailing data accepted")
	}
	path := filepath.Join(t.TempDir(), "trail.v3")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLibraryFile(path, MapArena); err == nil {
		t.Fatal("mapped open accepted trailing data")
	}
}

// forgeHugeDirectory rewrites a valid single-segment container, of any
// backend, so its directory entry claims 2^32-1 rows of the same length
// — a multi-TiB arena over the few KiB actually present — and re-seals
// everything a forger can: the entry's word count, the header's file
// size, and the directory and header CRCs. (The arena CRC cannot match;
// a reader that gets that far has already trusted the count.) The
// conformance suite reaches it as ForgeHugeDirectory.
func forgeHugeDirectory(valid []byte) []byte {
	b := append([]byte(nil), valid...)
	le := binary.LittleEndian
	dirOff, arenaOff := le.Uint64(b[32:40]), le.Uint64(b[40:48])
	dirEnd := dirOff + uint64(le.Uint32(b[12:16]))*v3DirEntrySize
	e := b[dirOff:dirEnd] // the first entry leads
	const buckets = 1<<32 - 1
	words := uint64(buckets) * uint64(le.Uint32(e[16:20]))
	le.PutUint64(e[8:16], words)
	le.PutUint32(e[20:24], buckets)
	le.PutUint32(b[dirEnd:], crc32.ChecksumIEEE(e))
	le.PutUint64(b[48:56], v3AlignUp(arenaOff+words*8))
	le.PutUint32(b[56:60], crc32.ChecksumIEEE(b[:56]))
	return b
}

// forgeRowWidth returns valid with its first directory entry's row width
// set to rowWords and the directory's checksum made to match: every CRC
// holds, and only the width is wrong.
func forgeRowWidth(valid []byte, rowWords uint32) []byte {
	b := append([]byte(nil), valid...)
	le := binary.LittleEndian
	dirOff := le.Uint64(b[32:40])
	dirEnd := dirOff + uint64(le.Uint32(b[12:16]))*v3DirEntrySize
	le.PutUint32(b[dirOff+16:], rowWords)
	le.PutUint32(b[dirEnd:], crc32.ChecksumIEEE(b[dirOff:dirEnd]))
	return b
}

// TestV3CorruptionMatrix drives both v3 readers (stream and mapped)
// through a matrix of corrupted files: every case must come back as an
// error — never a panic, never a silently accepted library.
func TestV3CorruptionMatrix(t *testing.T) {
	lib, _ := buildExactLib(t, 1200, 168)
	valid := writeV3Bytes(t, lib)
	le := binary.LittleEndian
	metaLen := le.Uint64(valid[24:32])
	dirOff := le.Uint64(valid[32:40])
	arenaOff := le.Uint64(valid[40:48])
	segCount := le.Uint32(valid[12:16])

	// rewriteHeaderCRC makes a header mutation self-consistent, so the
	// corruption under test is reached instead of the CRC tripping first.
	rewriteHeaderCRC := func(b []byte) {
		le.PutUint32(b[56:60], crc32.ChecksumIEEE(b[:56]))
	}
	// rewriteDirCRC re-seals a mutated directory the same way.
	rewriteDirCRC := func(b []byte) {
		end := dirOff + uint64(segCount)*v3DirEntrySize
		le.PutUint32(b[end:end+4], crc32.ChecksumIEEE(b[dirOff:end]))
	}

	cases := []struct {
		name string
		mut  func(b []byte) []byte
	}{
		{"truncated header", func(b []byte) []byte { return b[:40] }},
		{"truncated mid-file", func(b []byte) []byte { return b[:len(b)*2/3] }},
		{"truncated last byte", func(b []byte) []byte { return b[:len(b)-1] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bad version", func(b []byte) []byte {
			le.PutUint32(b[8:12], 99)
			rewriteHeaderCRC(b)
			return b
		}},
		{"header crc flip", func(b []byte) []byte { b[57] ^= 0x01; return b }},
		{"reserved header bytes", func(b []byte) []byte { b[61] = 1; return b }},
		{"oversized meta length", func(b []byte) []byte {
			le.PutUint64(b[24:32], metaLen+1)
			rewriteHeaderCRC(b)
			return b
		}},
		{"segment count flip", func(b []byte) []byte {
			le.PutUint32(b[12:16], segCount+1)
			rewriteHeaderCRC(b)
			return b
		}},
		{"flipped meta byte", func(b []byte) []byte { b[v3HeaderSize+2] ^= 0x10; return b }},
		{"flipped directory byte", func(b []byte) []byte { b[dirOff+4] ^= 0x10; return b }},
		{"misaligned arena offset", func(b []byte) []byte {
			le.PutUint64(b[dirOff:dirOff+8], le.Uint64(b[dirOff:dirOff+8])+8)
			rewriteDirCRC(b)
			return b
		}},
		{"flipped arena byte", func(b []byte) []byte { b[arenaOff] ^= 0x40; return b }},
		{"forged bucket count", forgeHugeDirectory},
		{"file size flip", func(b []byte) []byte {
			le.PutUint64(b[48:56], le.Uint64(b[48:56])+64)
			rewriteHeaderCRC(b)
			return b
		}},
	}
	if pad := dirOff - (v3HeaderSize + metaLen); pad > 0 {
		cases = append(cases, struct {
			name string
			mut  func(b []byte) []byte
		}{"nonzero padding byte", func(b []byte) []byte { b[v3HeaderSize+metaLen] = 0xAA; return b }})
	}

	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mut(append([]byte(nil), valid...))
			if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
				t.Fatal("stream reader accepted corrupted v3 file")
			}
			path := filepath.Join(dir, "corrupt.v3")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenLibraryFile(path, MapArena); err == nil {
				t.Fatal("mapped open accepted corrupted v3 file")
			}
		})
	}
}

// TestV3CompactRetiresMappedSegments exercises the DONTNEED hint path:
// compacting a mapped library rewrites tombstoned segments onto the
// heap, after which probes must report heap scans and the answers stay
// correct.
func TestV3CompactRetiresMappedSegments(t *testing.T) {
	lib, ref := buildExactLib(t, 1600, 169)
	path := writeV3File(t, lib)
	mapped := openLib(t, path, MapArena)
	defer mapped.Close()
	if !mapped.Mapped() {
		t.Skip("platform cannot map")
	}
	if err := mapped.Add(genome.Record{ID: "x", Seq: genome.Random(700, rng.New(170))}); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Remove(0); err != nil {
		t.Fatal(err)
	}
	if _, err := mapped.Compact(0); err != nil {
		t.Fatal(err)
	}
	if m, _, err := mapped.Lookup(ref.Slice(200, 232)); err != nil || len(m) != 0 {
		t.Fatalf("removed reference still matches after compact: %v (err %v)", m, err)
	}
	base := mapped.Counters().HeapScans
	if _, _, err := mapped.Lookup(mapped.Ref(1).Seq.Slice(0, 32)); err != nil {
		t.Fatal(err)
	}
	if mapped.Counters().HeapScans == base {
		t.Fatal("post-compact probes still attributed to the mapped tier")
	}
}

// TestScanCountersPerWindow is the HDC twin of cobs'
// TestScanCountersPerWindow: a Search adds one mapped or one heap scan
// per segment per query window to the per-tier counters, on heap and
// mapped opens of a two-segment file, and every window scans every
// bucket.
func TestScanCountersPerWindow(t *testing.T) {
	lib, ref := buildExactLib(t, 600, 171)
	lib.SetSealThreshold(1) // the next Add seals a segment of its own
	second := genome.Random(300, rng.New(172))
	if err := lib.Add(genome.Record{ID: "second", Seq: second}); err != nil {
		t.Fatal(err)
	}
	path := writeV3File(t, lib)
	pats := []*genome.Sequence{ref.Slice(0, 32), second.Slice(40, 72), genome.Random(32, rng.New(173))}
	for _, mode := range []LoadMode{LoadHeap, MapArena} {
		got := openLib(t, path, mode)
		defer got.Close()
		segs, mapped := int64(got.NumSegments()), int64(0)
		if segs != 2 {
			t.Fatalf("%d segments, want 2", segs)
		}
		if got.Mapped() {
			mapped = segs
		}
		before := got.Counters()
		var a Answer
		if err := got.Search(context.Background(), Query{Patterns: pats}, &a); err != nil {
			t.Fatal(err)
		}
		after, n := got.Counters(), int64(len(pats))
		if d, want := after.BucketProbes-before.BucketProbes, n*int64(got.Describe().Buckets); d != want {
			t.Errorf("mapped=%v: BucketProbes advanced by %d, want %d", got.Mapped(), d, want)
		}
		if d := after.MappedScans - before.MappedScans; d != n*mapped {
			t.Errorf("mapped=%v: MappedScans advanced by %d, want %d", got.Mapped(), d, n*mapped)
		}
		if d := after.HeapScans - before.HeapScans; d != n*(segs-mapped) {
			t.Errorf("mapped=%v: HeapScans advanced by %d, want %d", got.Mapped(), d, n*(segs-mapped))
		}
	}
}

// TestOpenAllocsBelowRows holds the open of a one-window-a-row library
// to far fewer allocations than it has rows: the meta parser decodes a
// segment's windows into one backing slice, not one slice a bucket.
// What an open allocates whatever the row count — about a thousand
// objects, most of them the encoder's item memory and the sketch
// prefix's probe windows, rebuilt from the parameters — is why the
// library holds 8 000 rows.
func TestOpenAllocsBelowRows(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 8192, Window: 32, Approx: true, MutTolerance: 2, Seed: 7304})
	if err := lib.Add(genome.Record{ID: "ref", Seq: genome.Random(8031, rng.New(7305))}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	rows := lib.Describe().Buckets
	if lib.Params().Capacity != 1 || rows != 8000 {
		t.Fatalf("capacity %d, %d rows: want 1 and 8000", lib.Params().Capacity, rows)
	}
	data := writeV3Bytes(t, lib)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := ReadIndex(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(rows)/4 {
		t.Fatalf("opening %d rows made %.0f allocations, want at most %d", rows, allocs, rows/4)
	}
}

package cobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

// writeV3 serializes a frozen index.
func writeV3(t testing.TB, x *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := x.WriteToV3(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openTiers runs the loader over data on every storage tier — the
// stream, and a file opened LoadHeap and MapArena — and returns what
// each said. The tiers are one walk over different byte sources, so
// callers hold them to the same verdict.
func openTiers(t *testing.T, data []byte) map[string]error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.v3")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, serr := core.ReadIndex(bytes.NewReader(data))
	out := map[string]error{"stream": serr}
	for name, mode := range map[string]core.LoadMode{"heap file": core.LoadHeap, "mapped": core.MapArena} {
		idx, err := core.OpenLibraryFile(path, mode)
		if err == nil {
			_ = idx.Close()
		}
		out[name] = err
	}
	return out
}

// requireRejected asserts every tier rejects data, and returns the
// stream tier's error for message checks.
func requireRejected(t *testing.T, data []byte, what string) error {
	t.Helper()
	errs := openTiers(t, data)
	for tier, err := range errs {
		if err == nil {
			t.Fatalf("%s: accepted on the %s tier", what, tier)
		}
	}
	return errs["stream"]
}

// buildSegmentedIndex builds a frozen multi-segment index with one
// tombstoned reference — the richest state the container has to carry.
func buildSegmentedIndex(t *testing.T) (*Index, []*genome.Sequence) {
	t.Helper()
	x := mustIndex(t, testParams)
	x.SetSealThreshold(2)
	var refs []*genome.Sequence
	for i := 0; i < 5; i++ {
		seq := genome.Random(600, rng.New(uint64(300+i)))
		refs = append(refs, seq)
		if err := x.Add(genome.Record{ID: refID(i), Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	x.Freeze()
	if err := x.Remove(2); err != nil {
		t.Fatal(err)
	}
	refs[2] = nil
	return x, refs
}

// requireSameAnswers checks that two indexes answer a query workload
// identically.
func requireSameAnswers(t *testing.T, a, b core.Index, refs []*genome.Sequence) {
	t.Helper()
	w := testParams.Window
	var queries []*genome.Sequence
	for _, seq := range refs {
		if seq == nil {
			continue
		}
		queries = append(queries, seq.Slice(0, w), seq.Slice(seq.Len()-w, seq.Len()))
	}
	for i := 0; i < 20; i++ {
		queries = append(queries, genome.Random(w, rng.New(uint64(900+i))))
	}
	for qi, q := range queries {
		ma, _, err := a.Lookup(q)
		if err != nil {
			t.Fatal(err)
		}
		mb, _, err := b.Lookup(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatches(ma, mb) {
			t.Fatalf("query %d: %v vs %v", qi, ma, mb)
		}
	}
}

func TestWriteToV3Roundtrip(t *testing.T) {
	x, refs := buildSegmentedIndex(t)
	var buf bytes.Buffer
	if _, err := x.WriteToV3(&buf); err != nil {
		t.Fatal(err)
	}
	idx, err := core.ReadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	y, ok := idx.(*Index)
	if !ok {
		t.Fatalf("ReadIndex returned %T", idx)
	}
	if y.params != x.params {
		t.Fatalf("params: %+v vs %+v", y.params, x.params)
	}
	if y.NumRefs() != x.NumRefs() || y.Describe().Buckets != x.Describe().Buckets ||
		y.NumWindows() != x.NumWindows() || y.NumSegments() != x.NumSegments() {
		t.Fatalf("shape drifted: refs %d/%d buckets %d/%d windows %d/%d segments %d/%d",
			y.NumRefs(), x.NumRefs(), y.Describe().Buckets, x.Describe().Buckets,
			y.NumWindows(), x.NumWindows(), y.NumSegments(), x.NumSegments())
	}
	if y.TombstoneRatio() != x.TombstoneRatio() {
		t.Fatalf("tombstone ratio %v vs %v", y.TombstoneRatio(), x.TombstoneRatio())
	}
	if y.Ref(2).Seq != nil {
		t.Fatal("tombstoned reference resurrected by the round trip")
	}
	requireSameAnswers(t, x, y, refs)
	// Serialization is deterministic: a second write is byte-identical.
	var buf2 bytes.Buffer
	if _, err := y.WriteToV3(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-serialization is not byte-identical")
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
// wherever it surfaces. The index is small enough that the writer's
// buffer holds the whole file, so a writer that refuses only the last
// byte fails in the final flush and nowhere else.
func TestWriteToV3FailingWriter(t *testing.T) {
	x := mustIndex(t, Params{Window: 16, RowBits: 256, Hashes: 2})
	if err := x.Add(genome.Record{ID: "r", Seq: genome.Random(200, rng.New(157))}); err != nil {
		t.Fatal(err)
	}
	x.Freeze()
	size := len(writeV3(t, x))
	for _, left := range []int{0, size / 2, size - 1} {
		if _, err := x.WriteToV3(&failAfter{left: left}); !errors.Is(err, errDiskFull) {
			t.Fatalf("writer failing after %d of %d bytes: WriteToV3 returned %v", left, size, err)
		}
	}
}

func TestWriteToV3RequiresFreeze(t *testing.T) {
	x := mustIndex(t, testParams)
	if _, err := x.WriteToV3(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteToV3 before Freeze succeeded")
	}
	// Freezing an empty index is a no-op that leaves it unfrozen.
	x.Freeze()
	if _, err := x.WriteToV3(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteToV3 of an empty, never-frozen index succeeded")
	}
	if err := x.Add(genome.Record{ID: "r", Seq: genome.Random(100, rng.New(1))}); err != nil {
		t.Fatal(err)
	}
	x.Freeze()
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed heap index keeps serving reads, serialization included.
	if _, err := x.WriteToV3(&bytes.Buffer{}); err != nil {
		t.Fatalf("closed heap WriteToV3: %v", err)
	}
}

func TestOpenLibraryFileDispatch(t *testing.T) {
	x, refs := buildSegmentedIndex(t)
	path := filepath.Join(t.TempDir(), "cobs.v3")
	if err := os.WriteFile(path, writeV3(t, x), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.LoadMode{core.LoadHeap, core.MapArena} {
		idx, err := core.OpenLibraryFile(path, mode)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if idx.Describe().Backend != BackendName {
			t.Fatalf("mode %v: backend %q", mode, idx.Describe().Backend)
		}
		if want := mode == core.MapArena && core.MapSupported(); idx.Mapped() != want {
			t.Fatalf("mode %v: Mapped() = %v, want %v", mode, idx.Mapped(), want)
		}
		requireSameAnswers(t, x, idx, refs)
		if err := idx.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMappedEqualsHeap is the cobs twin of core's TestV3MappedEqualsHeap:
// the same file opened on both tiers gives the same answers and the
// same bytes back, the mapping is the whole file, and scans are
// attributed to the tier that served them — until compaction rewrites
// a mapped segment onto the heap.
func TestMappedEqualsHeap(t *testing.T) {
	x, refs := buildSegmentedIndex(t)
	data := writeV3(t, x)
	path := filepath.Join(t.TempDir(), "cobs.v3")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	heap, err := core.OpenLibraryFile(path, core.LoadHeap)
	if err != nil {
		t.Fatal(err)
	}
	defer heap.Close()
	mapped, err := core.OpenLibraryFile(path, core.MapArena)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	requireSameAnswers(t, heap, mapped, refs)
	if !bytes.Equal(writeV3(t, heap.(*Index)), data) || !bytes.Equal(writeV3(t, mapped.(*Index)), data) {
		t.Fatal("a reopened index does not write the bytes it was opened from")
	}
	if c := heap.Counters(); c.MappedScans != 0 || c.HeapScans == 0 {
		t.Fatalf("heap index counters: mapped=%d heap=%d", c.MappedScans, c.HeapScans)
	}
	if !mapped.Mapped() {
		if core.MapSupported() {
			t.Fatal("MapArena fell back to the heap on a platform that maps")
		}
		return
	}
	if mapped.Describe().MappedBytes != int64(len(data)) {
		t.Fatalf("MappedBytes %d, file is %d bytes", mapped.Describe().MappedBytes, len(data))
	}
	if c := mapped.Counters(); c.MappedScans == 0 || c.HeapScans != 0 {
		t.Fatalf("mapped index counters: mapped=%d heap=%d", c.MappedScans, c.HeapScans)
	}
	// Reference 2 is tombstoned in its segment: compaction rewrites that
	// segment onto the heap and tells the kernel its file range is cold
	// (the engine's DONTNEED hint), so heap scans appear beside the mapped
	// ones and the answers do not move. Nothing has compacted since the
	// open, so every segment still aliases the file.
	var cold int
	for _, info := range mapped.(*Index).Segments() {
		if info.Tombstones > 0 {
			cold++
		}
	}
	if n, err := mapped.Compact(0); err != nil || n != cold || cold == 0 {
		t.Fatalf("Compact rewrote %d segments (err %v), %d mapped segments held tombstones", n, err, cold)
	}
	if _, err := heap.Compact(0); err != nil {
		t.Fatal(err)
	}
	requireSameAnswers(t, heap, mapped, refs)
	if c := mapped.Counters(); c.HeapScans == 0 {
		t.Fatal("post-compact probes still attributed to the mapped tier only")
	}
}

// TestScanCountersPerWindow pins what a search adds to the scan
// counters on both tiers: Hashes rows of every segment per query
// window, and one mapped or one heap range per segment per window.
func TestScanCountersPerWindow(t *testing.T) {
	x, refs := buildSegmentedIndex(t)
	path := filepath.Join(t.TempDir(), "cobs.v3")
	if err := os.WriteFile(path, writeV3(t, x), 0o644); err != nil {
		t.Fatal(err)
	}
	w := testParams.Window
	pats := []*genome.Sequence{refs[0].Slice(0, w), refs[1].Slice(10, 10+w), genome.Random(w, rng.New(9))}
	for _, mode := range []core.LoadMode{core.LoadHeap, core.MapArena} {
		idx, err := core.OpenLibraryFile(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		segs, mapped := int64(idx.NumSegments()), int64(0)
		if idx.Mapped() {
			mapped = segs
		}
		before := idx.Counters()
		var a core.Answer
		if err := idx.Search(context.Background(), core.Query{Patterns: pats}, &a); err != nil {
			t.Fatal(err)
		}
		after, n := idx.Counters(), int64(len(pats))
		if got, want := after.BucketProbes-before.BucketProbes, n*int64(testParams.Hashes)*segs; got != want {
			t.Errorf("mapped=%v: BucketProbes advanced by %d, want %d", idx.Mapped(), got, want)
		}
		if got := after.MappedScans - before.MappedScans; got != n*mapped {
			t.Errorf("mapped=%v: MappedScans advanced by %d, want %d", idx.Mapped(), got, n*mapped)
		}
		if got := after.HeapScans - before.HeapScans; got != n*(segs-mapped) {
			t.Errorf("mapped=%v: HeapScans advanced by %d, want %d", idx.Mapped(), got, n*(segs-mapped))
		}
	}
}

// TestSavedBytesPinned is the cobs twin of core's TestSavedBytesPinned:
// a two-segment index, one of whose segments holds a tombstone, is
// saved and the file's SHA-256 held to a digest taken when each backend
// wrote its own container. Both tiers must reopen it into an index that
// writes the same bytes back and answers alike.
func TestSavedBytesPinned(t *testing.T) {
	const digest = "0030d4003f2f8e03be21ee9769c8d884bcee3233904cb708050591c6ea745055"
	p := Params{Window: 16, RowBits: 1024, Hashes: 3}
	x := mustIndex(t, p)
	var refs []*genome.Sequence
	for i := 0; i < 3; i++ {
		seq := genome.Random(200+50*i, rng.New(uint64(7400+i)))
		refs = append(refs, seq)
		if err := x.Add(genome.Record{ID: refID(i), Seq: seq}); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			x.Freeze() // the first two references are the first segment
			x.SetSealThreshold(1)
		}
	}
	if err := x.Remove(1); err != nil {
		t.Fatal(err)
	}
	refs[1] = nil
	infos := x.Segments()
	if len(infos) != 2 || infos[0].Tombstones == 0 || infos[1].Tombstones != 0 {
		t.Fatalf("segments %+v: want two, a tombstone in the first", infos)
	}
	data := writeV3(t, x)
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != digest {
		t.Fatalf("v3 file of %d bytes has SHA-256 %s, want %s", len(data), got, digest)
	}
	path := filepath.Join(t.TempDir(), "cobs.v3")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.LoadMode{core.LoadHeap, core.MapArena} {
		idx, err := core.OpenLibraryFile(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		if !bytes.Equal(writeV3(t, idx.(*Index)), data) {
			t.Fatalf("mode %v: the reopened index writes other bytes", mode)
		}
		requireSameAnswers(t, x, idx, refs)
	}
}

// mustPin returns x's current view (the read section is closed at once:
// the caller only inspects segment headers).
func mustPin(t *testing.T, x *Index) *core.View {
	t.Helper()
	v, err := x.Pin("test")
	if err != nil {
		t.Fatal(err)
	}
	x.Unpin()
	return v
}

// TestCorruptionMatrix flips every single byte of a serialized cobs
// container (and truncates at a spread of lengths): each mutation must
// be rejected with an error — the CRCs and the backend tag cover the
// whole file — and must never panic, on the stream tier for every byte
// and on the file tiers (heap and mapped) for a stride of them.
func TestCorruptionMatrix(t *testing.T) {
	x := mustIndex(t, Params{Window: 8, RowBits: 256, Hashes: 2})
	x.SetSealThreshold(2)
	for i := 0; i < 3; i++ {
		if err := x.Add(genome.Record{ID: refID(i), Seq: genome.Random(80, rng.New(uint64(i+1)))}); err != nil {
			t.Fatal(err)
		}
	}
	x.Freeze()
	var buf bytes.Buffer
	if _, err := x.WriteToV3(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := core.ReadIndex(bytes.NewReader(valid)); err != nil {
		t.Fatalf("pristine container rejected: %v", err)
	}
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		if _, err := core.ReadIndex(bytes.NewReader(mut)); err == nil {
			t.Fatalf("byte %d flipped, still accepted", i)
		}
		if i%7 == 0 || i < 128 {
			requireRejected(t, mut, "flipped byte")
		}
	}
	for cut := 0; cut < len(valid); cut += 37 {
		requireRejected(t, valid[:cut], "truncation")
	}
}

// TestUnknownBackendTag rewrites the header's backend tag (the
// dispatch hint at bytes [60,64), outside the header CRC) to an
// unregistered value: the loader must name the unknown backend, not
// guess a decoder.
func TestUnknownBackendTag(t *testing.T) {
	x := buildIndexSmall(t)
	var buf bytes.Buffer
	if _, err := x.WriteToV3(&buf); err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint32(mut[60:64], 99)
	err := requireRejected(t, mut, "unknown backend tag")
	if want := "unknown index backend tag 99"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not name the tag", err)
	}
}

// emptyContainer returns a zero-segment cobs container. An empty index
// never freezes, so no index writes one — but a forger can, and the
// reader must hold up.
func emptyContainer(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := core.WriteContainerV3(&buf, backendTag, func(sw *core.SectionWriter) {
		sw.U32(8)   // Window
		sw.U64(256) // RowBits
		sw.U32(2)   // Hashes
		sw.Refs(nil)
	}, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHeaderTagFlipOnEmptyContainer pins the CRC-protected meta tag
// copy: a zero-segment container has no directory entries, so the meta
// section's leading tag word is the only protected copy — flipping the
// CRC-exempt header tag must still fail cleanly, in both directions.
func TestHeaderTagFlipOnEmptyContainer(t *testing.T) {
	// Empty cobs container, header retagged to hdc.
	mut := emptyContainer(t)
	binary.LittleEndian.PutUint32(mut[60:64], 0)
	err := requireRejected(t, mut, "empty cobs container retagged as hdc")
	if !bytes.Contains([]byte(err.Error()), []byte("meta section tagged")) {
		t.Fatalf("error %q is not the meta-tag cross-check", err)
	}
	// Zero-segment tag-0 container (the hdc writer never emits one, a
	// forger can), header retagged to cobs.
	var hbuf bytes.Buffer
	if _, err := core.WriteContainerV3(&hbuf, 0, func(sw *core.SectionWriter) {}, nil); err != nil {
		t.Fatal(err)
	}
	mut = append([]byte(nil), hbuf.Bytes()...)
	binary.LittleEndian.PutUint32(mut[60:64], backendTag)
	err = requireRejected(t, mut, "empty hdc container retagged as cobs")
	if !bytes.Contains([]byte(err.Error()), []byte("meta section tagged")) {
		t.Fatalf("error %q is not the meta-tag cross-check", err)
	}
}

// TestRejectsImplausibleWindowCount forges a CRC-consistent container
// whose column metadata declares ~4G windows: the reader must reject
// the count before the int32 narrowing could wrap it negative.
func TestRejectsImplausibleWindowCount(t *testing.T) {
	refs := []genome.Record{{ID: "r", Seq: genome.Random(64, rng.New(11))}}
	var buf bytes.Buffer
	_, err := core.WriteContainerV3(&buf, backendTag, func(sw *core.SectionWriter) {
		sw.U32(8)   // Window
		sw.U64(256) // RowBits
		sw.U32(2)   // Hashes
		sw.Refs(refs)
		sw.U32(1)          // one column
		sw.U32(0)          // referencing record 0
		sw.U32(0xffffffff) // window count far past any plausible bound
	}, []core.ContainerSegment{{Words: make([]uint64, 256), RowWords: 1, Buckets: 256}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.ReadIndex(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("container declaring 4294967295 windows accepted")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("windows")) {
		t.Fatalf("error %q does not name the window count", err)
	}
}

// forgedColumnCount is a CRC-consistent container whose one segment
// declares the largest column count the limits allow over the bytes of a
// single column.
func forgedColumnCount(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := core.WriteContainerV3(&buf, backendTag, func(sw *core.SectionWriter) {
		sw.U32(8)   // Window
		sw.U64(256) // RowBits
		sw.U32(2)   // Hashes
		sw.Refs([]genome.Record{{ID: "r", Seq: genome.Random(64, rng.New(11))}})
		sw.U32(core.MaxMetaCount) // columns declared
		sw.U32(0)                 // the one column present: record 0,
		sw.U32(57)                // 57 windows
	}, []core.ContainerSegment{{Words: make([]uint64, 256), RowWords: 1, Buckets: 256}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestForgedColumnCountRejected: the column tables are sized from a
// declared count, so the count is held to the metadata bytes present
// before anything is allocated from it (2 × 64 MiB at the limit).
func TestForgedColumnCountRejected(t *testing.T) {
	data := forgedColumnCount(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := requireRejected(t, data, "forged column count")
	runtime.ReadMemStats(&after)
	if !strings.Contains(err.Error(), "declares 16777216 columns") {
		t.Fatalf("error %q does not name the column count", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a %d-byte file allocated %d bytes", len(data), grew)
	}
}

func buildIndexSmall(t testing.TB) *Index {
	t.Helper()
	x, err := New(Params{Window: 8, RowBits: 256, Hashes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Add(genome.Record{ID: "r", Seq: genome.Random(100, rng.New(5))}); err != nil {
		t.Fatal(err)
	}
	x.Freeze()
	return x
}

package cobs

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

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
	if y.Params() != x.Params() {
		t.Fatalf("params: %+v vs %+v", y.Params(), x.Params())
	}
	if y.NumRefs() != x.NumRefs() || y.NumBuckets() != x.NumBuckets() ||
		y.NumWindows() != x.NumWindows() || y.NumSegments() != x.NumSegments() {
		t.Fatalf("shape drifted: refs %d/%d buckets %d/%d windows %d/%d segments %d/%d",
			y.NumRefs(), x.NumRefs(), y.NumBuckets(), x.NumBuckets(),
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
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.WriteToV3(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
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
		// MapArena falls back to the heap loader: this backend never maps.
		if idx.Mapped() {
			t.Fatalf("mode %v: cobs index claims to be mapped", mode)
		}
		requireSameAnswers(t, x, idx, refs)
		if err := idx.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptionMatrix flips every single byte of a serialized cobs
// container (and truncates at a spread of lengths): each mutation must
// be rejected with an error — the CRCs and the backend tag cover the
// whole file — and must never panic.
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
	}
	for cut := 0; cut < len(valid); cut += 37 {
		if _, err := core.ReadIndex(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
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
	_, err := core.ReadIndex(bytes.NewReader(mut))
	if err == nil {
		t.Fatal("unknown backend tag accepted")
	}
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
	_, err := core.ReadIndex(bytes.NewReader(mut))
	if err == nil {
		t.Fatal("empty cobs container retagged as hdc accepted")
	}
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
	_, err = core.ReadIndex(bytes.NewReader(mut))
	if err == nil {
		t.Fatal("empty hdc container retagged as cobs accepted")
	}
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

func buildIndexSmall(t *testing.T) *Index {
	t.Helper()
	x := mustIndex(t, Params{Window: 8, RowBits: 256, Hashes: 2})
	if err := x.Add(genome.Record{ID: "r", Seq: genome.Random(100, rng.New(5))}); err != nil {
		t.Fatal(err)
	}
	x.Freeze()
	return x
}

package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

// loadFixture reads a library file checked in under testdata/.
func loadFixture(t *testing.T, name string) *Library {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return readLib(t, data)
}

// goldenSealedFixture rebuilds, live, the exact library that produced
// testdata/golden_v3_sealed.lib. The generator used rng.New(9001) for
// all three reference draws.
func goldenSealedFixture(t *testing.T) *Library {
	t.Helper()
	lib := mustLibrary(t, Params{Dim: 2048, Window: 24, Stride: 1, Capacity: 12,
		Approx: true, MutTolerance: 2, Seed: 9002})
	src := rng.New(9001)
	for i := 0; i < 3; i++ {
		rec := genome.Record{
			ID:          "ref-" + string(rune('0'+i)),
			Description: "fixture ref " + string(rune('0'+i)),
			Seq:         genome.Random(400, src),
		}
		if err := lib.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	lib.Freeze()
	return lib
}

// assertLibrariesEquivalent checks that two frozen libraries answer
// identically: same shape, bit-identical bucket vectors, and the same
// Lookup results (matches and stats) for every member window probed.
func assertLibrariesEquivalent(t *testing.T, want, got *Library) {
	t.Helper()
	if got.Describe().Buckets != want.Describe().Buckets || got.NumWindows() != want.NumWindows() ||
		got.NumRefs() != want.NumRefs() {
		t.Fatalf("shape differs: %d/%d/%d vs %d/%d/%d",
			got.Describe().Buckets, got.NumWindows(), got.NumRefs(),
			want.Describe().Buckets, want.NumWindows(), want.NumRefs())
	}
	if got.Describe().Threshold != want.Describe().Threshold {
		t.Fatalf("thresholds differ: %v vs %v", got.Describe().Threshold, want.Describe().Threshold)
	}
	cw, okw := want.Calibration()
	cg, okg := got.Calibration()
	if okw != okg || cw != cg {
		t.Fatalf("calibration differs: %+v/%v vs %+v/%v", cg, okg, cw, okw)
	}
	for b := 0; b < want.Describe().Buckets; b++ {
		// nil for a tombstoned row stored as its sketch
		if g, w := got.BucketVector(b), want.BucketVector(b); (g == nil) != (w == nil) || g != nil && !g.Equal(w) {
			t.Fatalf("bucket %d vector differs", b)
		}
	}
	w := want.Params().Window
	for r := 0; r < want.NumRefs(); r++ {
		seq := want.Ref(r).Seq
		if seq == nil {
			continue
		}
		for _, off := range []int{0, seq.Len() / 2, seq.Len() - w} {
			pat := seq.Slice(off, off+w)
			m1, s1, err := want.Lookup(pat)
			if err != nil {
				t.Fatal(err)
			}
			m2, s2, err := got.Lookup(pat)
			if err != nil {
				t.Fatal(err)
			}
			if len(m1) != len(m2) || s1 != s2 {
				t.Fatalf("ref %d off %d: answers diverge: %v/%+v vs %v/%+v",
					r, off, m1, s1, m2, s2)
			}
			for i := range m1 {
				if m1[i] != m2[i] {
					t.Fatalf("ref %d off %d: match %d differs: %+v vs %+v",
						r, off, i, m1[i], m2[i])
				}
			}
		}
	}
}

// TestGoldenV3SealedCompat decodes a v3 file written by an earlier
// commit: the output of `biohd convert` at 562a5cc over the last v1 and
// v2 sealed goldens (both gave these 34 432 bytes). It pins the encoder
// bits and the container format at once, so never regenerate it. The
// decoded library must be indistinguishable from a live rebuild.
func TestGoldenV3SealedCompat(t *testing.T) {
	loaded := loadFixture(t, "golden_v3_sealed.lib")
	if !loaded.Describe().Frozen || loaded.NumSegments() != 1 || loaded.TombstoneRatio() != 0 {
		t.Fatalf("frozen %v, %d segments, tombstone ratio %v",
			loaded.Describe().Frozen, loaded.NumSegments(), loaded.TombstoneRatio())
	}
	assertLibrariesEquivalent(t, goldenSealedFixture(t), loaded)
}

// TestGoldenV3SealedCompatTiers opens the same golden through both
// OpenLibraryFile tiers: each must give a library indistinguishable
// from a live rebuild, and MapArena must map where the platform can.
func TestGoldenV3SealedCompatTiers(t *testing.T) {
	path := filepath.Join("testdata", "golden_v3_sealed.lib")
	want := goldenSealedFixture(t)
	for _, mode := range []LoadMode{LoadHeap, MapArena} {
		lib := openLib(t, path, mode)
		if !lib.Describe().Frozen || lib.NumSegments() != 1 || lib.TombstoneRatio() != 0 {
			t.Fatalf("mode %d: frozen %v, %d segments, tombstone ratio %v",
				mode, lib.Describe().Frozen, lib.NumSegments(), lib.TombstoneRatio())
		}
		if mode == MapArena && MapSupported() && !lib.Mapped() {
			t.Fatal("MapArena loaded the golden onto the heap on a platform that maps")
		}
		assertLibrariesEquivalent(t, want, lib)
		lib.Close()
	}
}

// goldenC1Fixture rebuilds, live, the library whose file an earlier
// commit wrote to testdata/golden_v3_c1.lib: the geometry the CLI and
// bench search approximately (one window a row under a 16-word sketch)
// over one 64-base reference, 33 rows. That commit stored the rows
// whole.
func goldenC1Fixture(t *testing.T) *Library {
	t.Helper()
	lib := mustLibrary(t, Params{Dim: 8192, Window: 32, Approx: true, MutTolerance: 2, Seed: 5101})
	rec := genome.Record{ID: "ref-0", Description: "one-window-a-row fixture", Seq: genome.Random(64, rng.New(5102))}
	if err := lib.Add(rec); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	return lib
}

// TestGoldenV3OneWindowRows opens a one-window-a-row file written with
// whole rows — never regenerate it — on every open path. The loader
// takes the directory's width and copies the sketch plane out of the
// rows; the library must then be what a fresh build is: the calibration
// stored by the whole-row writer equal to the one derived afresh, the
// same view plan, every re-encoded bucket vector equal to the stored
// row, and every window of the reference, exact or two substitutions
// off, answered alike. A fresh build stores the sketches alone.
func TestGoldenV3OneWindowRows(t *testing.T) {
	want := goldenC1Fixture(t)
	if info := want.Describe(); info.RowWords != 16 || info.SketchWords != 16 || info.SketchBytes != 0 {
		t.Fatalf("fresh build stores %d-word rows, %d-word sketches, %d plane bytes: want the rows to be the sketches", info.RowWords, info.SketchWords, info.SketchBytes)
	}
	path := filepath.Join("testdata", "golden_v3_c1.lib")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	libs := map[string]*Library{"ReadIndex": readLib(t, data)}
	for _, mode := range []LoadMode{LoadHeap, MapArena} {
		libs[fmt.Sprint("mode ", mode)] = openLib(t, path, mode)
	}
	ref := want.Ref(0).Seq
	w := want.Params().Window
	src := rng.New(5103)
	for name, lib := range libs {
		info := lib.Describe()
		if info.RowWords != 128 || info.SketchBytes != int64(info.Buckets*16*8) {
			t.Fatalf("%s: %d-word rows, %d plane bytes: want the whole rows and a copied plane", name, info.RowWords, info.SketchBytes)
		}
		if got, fresh := hdcOf(lib.snap.Load()).plan, hdcOf(want.snap.Load()).plan; got != fresh {
			t.Fatalf("%s: plan %+v, fresh build %+v", name, got, fresh)
		}
		assertLibrariesEquivalent(t, want, lib)
		for off := 0; off+w <= ref.Len(); off++ {
			pat, _ := genome.SubstituteExactly(ref.Slice(off, off+w), off%3, src)
			m1, s1, e1 := want.Lookup(pat)
			m2, s2, e2 := lib.Lookup(pat)
			if e1 != nil || e2 != nil || s1 != s2 || len(m1) == 0 || !reflect.DeepEqual(m1, m2) {
				t.Fatalf("%s: window %d answers %v %+v %v, fresh build %v %+v %v", name, off, m2, s2, e2, m1, s1, e1)
			}
		}
		lib.Close()
	}
}

// TestRowWidthForgeryRejected: a directory whose row width is neither
// D/64 nor the library's sketch width is an error on every open path —
// never a panic — and so is one that claims the sketch width over an
// arena of whole rows.
func TestRowWidthForgeryRejected(t *testing.T) {
	valid, err := os.ReadFile(filepath.Join("testdata", "golden_v3_c1.lib"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rw := range []uint32{0, 1, 8, 16, 32, 127, 129, 1 << 31} {
		forged := forgeRowWidth(valid, rw)
		if _, err := ReadIndex(bytes.NewReader(forged)); err == nil {
			t.Fatalf("ReadIndex accepted %d-word rows", rw)
		}
		path := filepath.Join(t.TempDir(), "forged.lib")
		if err := os.WriteFile(path, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []LoadMode{LoadHeap, MapArena} {
			if idx, err := OpenLibraryFile(path, mode); err == nil {
				idx.Close()
				t.Fatalf("OpenLibraryFile(mode %d) accepted %d-word rows", mode, rw)
			}
		}
	}
}

// TestRawCounterFilesRejected: no open path reads a raw-counter library
// any more. A v3 file patched to say Sealed = 0 must fail ReadIndex and
// both OpenLibraryFile tiers with ErrRawCounters, as an error rather
// than a panic.
func TestRawCounterFilesRejected(t *testing.T) {
	lib, _ := buildExactLib(t, 300, 154)
	patched := filepath.Join(t.TempDir(), "raw.v3")
	if err := os.WriteFile(patched, rawCounterV3(writeV3Bytes(t, lib)), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Run("v3-patched", func(t *testing.T) {
		data, err := os.ReadFile(patched)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadIndex(bytes.NewReader(data)); !errors.Is(err, ErrRawCounters) {
			t.Errorf("ReadIndex: %v, want ErrRawCounters", err)
		}
		for _, mode := range []LoadMode{LoadHeap, MapArena} {
			idx, err := OpenLibraryFile(patched, mode)
			if err == nil {
				idx.Close()
			}
			if !errors.Is(err, ErrRawCounters) {
				t.Errorf("OpenLibraryFile(mode %d): %v, want ErrRawCounters", mode, err)
			}
		}
	})
}

// legacyHeader is the 12 bytes a v1 or v2 library stream starts with.
func legacyHeader(version uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte(libMagic), version)
}

// TestLegacyFormatRejected: a v1 or v2 stream, alone or followed by
// anything, fails ReadIndex and both OpenLibraryFile tiers with
// ErrLegacyFormat, whose text names the last commit that reads the
// format and the command that converts it there. The decision is taken
// from the header: ReadIndex reads nothing past the version word.
func TestLegacyFormatRejected(t *testing.T) {
	if msg := ErrLegacyFormat.Error(); !strings.Contains(msg, "562a5cc") || !strings.Contains(msg, "biohd convert") {
		t.Fatalf("ErrLegacyFormat does not name the commit and the command: %q", msg)
	}
	dir := t.TempDir()
	for _, version := range []uint32{1, 2} {
		junk := append(legacyHeader(version), bytes.Repeat([]byte{0xA5}, 4096)...)
		for _, data := range [][]byte{legacyHeader(version), junk} {
			name := fmt.Sprintf("v%d-%dB", version, len(data))
			t.Run(name, func(t *testing.T) {
				r := bytes.NewReader(data)
				if _, err := ReadIndex(r); !errors.Is(err, ErrLegacyFormat) {
					t.Errorf("ReadIndex: %v, want ErrLegacyFormat", err)
				}
				if n := len(data) - r.Len(); n != len(libMagic)+4 {
					t.Errorf("ReadIndex read %d bytes, want the %d of magic and version", n, len(libMagic)+4)
				}
				path := filepath.Join(dir, name+".lib")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				for _, mode := range []LoadMode{LoadHeap, MapArena} {
					idx, err := OpenLibraryFile(path, mode)
					if err == nil {
						idx.Close()
					}
					if !errors.Is(err, ErrLegacyFormat) {
						t.Errorf("OpenLibraryFile(mode %d): %v, want ErrLegacyFormat", mode, err)
					}
				}
			})
		}
	}
}

// buildSegmentedLib builds a frozen sealed-approx library with one
// pre-freeze segment plus live-ingested refs sealed into additional
// segments. Returns the library and the reference sequences.
func buildSegmentedLib(t *testing.T, nPre, nPost int, seed uint64) (*Library, []*genome.Sequence) {
	t.Helper()
	// Capacity is left to the model: approximate mode at D=2048 only
	// supports tiny occupancies, and an over-stuffed bucket would push
	// the calibrated threshold above every member score.
	lib := mustLibrary(t, Params{Dim: 2048, Window: 24,
		Approx: true, MutTolerance: 2, Seed: seed})
	src := rng.New(seed ^ 0x5e9)
	var refs []*genome.Sequence
	add := func(i int) {
		ref := genome.Random(300, src)
		refs = append(refs, ref)
		if err := lib.Add(genome.Record{ID: "r", Seq: ref}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nPre; i++ {
		add(i)
	}
	lib.Freeze()
	lib.SetSealThreshold(1) // every post-freeze Add seals its own segment
	for i := 0; i < nPost; i++ {
		add(nPre + i)
	}
	return lib, refs
}

// TestSaveLoadPreservesSegments round-trips a multi-segment library
// with a tombstoned reference through the file format and asserts the
// segment boundaries, tombstones, and calibration all survive.
func TestSaveLoadPreservesSegments(t *testing.T) {
	lib, refs := buildSegmentedLib(t, 2, 2, 601)
	if err := lib.Remove(1); err != nil {
		t.Fatal(err)
	}
	if lib.NumSegments() < 3 {
		t.Fatalf("want a multi-segment library, got %d segments", lib.NumSegments())
	}
	if lib.TombstoneRatio() == 0 {
		t.Fatal("Remove left no tombstones")
	}
	back := saveLoad(t, lib)
	if back.NumSegments() != lib.NumSegments() {
		t.Fatalf("segment count changed: %d vs %d", back.NumSegments(), lib.NumSegments())
	}
	si1, si2 := lib.Segments(), back.Segments()
	for i := range si1 {
		if si1[i] != si2[i] {
			t.Fatalf("segment %d info differs: %+v vs %+v", i, si2[i], si1[i])
		}
	}
	if back.TombstoneRatio() != lib.TombstoneRatio() {
		t.Fatalf("tombstone ratio changed: %v vs %v", back.TombstoneRatio(), lib.TombstoneRatio())
	}
	if back.Ref(1).Seq != nil {
		t.Fatal("removed reference resurrected by round-trip")
	}
	assertLibrariesEquivalent(t, lib, back)
	// The removed reference must stay unfindable after the round-trip.
	w := lib.Params().Window
	if m, _, err := back.Lookup(refs[1].Slice(50, 50+w)); err != nil {
		t.Fatal(err)
	} else {
		for _, mm := range m {
			if mm.Ref == 1 {
				t.Fatalf("tombstoned ref matched after round-trip: %+v", mm)
			}
		}
	}
	// The loaded library is still mutable: Remove and Compact work on it.
	if err := back.Remove(0); err != nil {
		t.Fatalf("Remove on loaded library: %v", err)
	}
	if n, err := back.Compact(0); err != nil || n == 0 {
		t.Fatalf("Compact on loaded library: %d segments rewritten, err %v", n, err)
	}
	if back.TombstoneRatio() != 0 {
		t.Fatalf("tombstones survive compaction: %v", back.TombstoneRatio())
	}
	if m, _, err := back.Lookup(refs[3].Slice(50, 50+w)); err != nil || len(m) == 0 {
		t.Fatalf("survivor lost after compacting loaded library: %v matches, err %v", len(m), err)
	}
}

// matchKeys reduces matches to their identity (which reference window
// matched at which query offset) — the segment layout must not change
// this set.
func matchKeys(ms []Match) map[Match]bool {
	set := make(map[Match]bool, len(ms))
	for _, m := range ms {
		set[m] = true
	}
	return set
}

// TestSegmentBoundaryIndependence ingests the same references once as a
// single frozen segment and once split across per-reference segments,
// and asserts Lookup and a Long Search report the same matches. Scores and
// bucket indices may differ (different superposition groupings); the
// verified match set must not.
func TestSegmentBoundaryIndependence(t *testing.T) {
	const seed = 811
	params := Params{Dim: 4096, Window: 24, Capacity: 8, Seed: seed}
	src := rng.New(seed ^ 0xbead)
	var refs []*genome.Sequence
	for i := 0; i < 4; i++ {
		refs = append(refs, genome.Random(300, src))
	}

	mono := mustLibrary(t, params)
	for _, ref := range refs {
		if err := mono.Add(genome.Record{ID: "r", Seq: ref}); err != nil {
			t.Fatal(err)
		}
	}
	mono.Freeze()

	multi := mustLibrary(t, params)
	if err := multi.Add(genome.Record{ID: "r", Seq: refs[0]}); err != nil {
		t.Fatal(err)
	}
	multi.Freeze()
	multi.SetSealThreshold(1)
	for _, ref := range refs[1:] {
		if err := multi.Add(genome.Record{ID: "r", Seq: ref}); err != nil {
			t.Fatal(err)
		}
	}
	if multi.NumSegments() < 4 {
		t.Fatalf("multi library has %d segments, want ≥ 4", multi.NumSegments())
	}
	if mono.NumSegments() != 1 {
		t.Fatalf("mono library has %d segments, want 1", mono.NumSegments())
	}
	if mono.NumWindows() != multi.NumWindows() {
		t.Fatalf("window counts differ: %d vs %d", mono.NumWindows(), multi.NumWindows())
	}

	w := params.Window
	for r, ref := range refs {
		for _, off := range []int{0, 97, ref.Len() - w} {
			pat := ref.Slice(off, off+w)
			m1, _, err := mono.Lookup(pat)
			if err != nil {
				t.Fatal(err)
			}
			m2, _, err := multi.Lookup(pat)
			if err != nil {
				t.Fatal(err)
			}
			k1, k2 := matchKeys(m1), matchKeys(m2)
			if len(k1) != len(k2) {
				t.Fatalf("ref %d off %d: match sets differ: %v vs %v", r, off, m1, m2)
			}
			for k := range k1 {
				if !k2[k] {
					t.Fatalf("ref %d off %d: match %+v missing from segmented library", r, off, k)
				}
			}
		}
		// Long-read mapping agrees on the winning reference and offset.
		long := ref.Slice(20, 260)
		r1, _, err := SearchLong(mono, long, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		r2, _, err := SearchLong(multi, long, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if len(r1) == 0 || len(r2) == 0 {
			t.Fatalf("ref %d: long lookup empty: %v vs %v", r, r1, r2)
		}
		if r1[0].Ref != r || r2[0].Ref != r || r1[0] != r2[0] {
			t.Fatalf("ref %d: long lookup diverges: %+v vs %+v", r, r1[0], r2[0])
		}
	}
}

// TestConcurrentSearchDuringMutation is the snapshot-isolation stress
// test: readers hammer every search entry point while a writer ingests,
// removes, and compacts. Against the old in-place republish this fails
// under -race (readers observed the arena mid-rewrite); with atomic
// snapshots it must be silent.
func TestConcurrentSearchDuringMutation(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 2048, Window: 24,
		Approx: true, MutTolerance: 2, Seed: 901})
	base := genome.Random(600, rng.New(902))
	if err := lib.Add(genome.Record{ID: "base", Seq: base}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	lib.SetSealThreshold(8)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	w := lib.Params().Window
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(uint64(910 + g))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				off := src.Intn(base.Len() - w)
				switch i % 3 {
				case 0:
					if _, _, err := lib.Lookup(base.Slice(off, off+w)); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, _, err := SearchLong(lib, base.Slice(0, 240), 0.2); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, _, err := lib.Lookup(genome.Random(w, src)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}

	// Writer: live ingest, tombstone the ref it just added, and compact —
	// every mutation publishes a fresh snapshot under the readers.
	wsrc := rng.New(903)
	for i := 0; i < 12; i++ {
		if err := lib.Add(genome.Record{ID: "live", Seq: genome.Random(200, wsrc)}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if err := lib.Remove(lib.NumRefs() - 1); err != nil {
				t.Fatal(err)
			}
		}
		if i%4 == 3 {
			if _, err := lib.Compact(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	// The original reference survived the churn.
	if m, _, err := lib.Lookup(base.Slice(100, 100+w)); err != nil || len(m) == 0 {
		t.Fatalf("base reference lost after concurrent churn: %v matches, err %v", len(m), err)
	}
}

package core

import (
	"slices"
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

func mustLibrary(t *testing.T, p Params) *Library {
	t.Helper()
	lib, err := NewLibrary(p)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestParamsValidate(t *testing.T) {
	for name, p := range map[string]Params{
		"bad dim":        {Dim: 100, Window: 10},
		"zero window":    {Dim: 1024, Window: 0},
		"window too big": {Dim: 64, Window: 64},
		"negative cap":   {Dim: 1024, Window: 16, Capacity: -1},
		"bad stride":     {Dim: 1024, Window: 16, Stride: -1},
		"bad tolerance":  {Dim: 1024, Window: 16, MutTolerance: 17, Approx: true},
		"exact with tol": {Dim: 1024, Window: 16, MutTolerance: 2},
		"bad alpha":      {Dim: 1024, Window: 16, Alpha: 2},
	} {
		if _, err := NewLibrary(p); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestNewLibraryDefaults(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 4096, Window: 32, Seed: 1})
	p := lib.Params()
	if p.Stride != 1 || p.Alpha != 1e-3 || p.Beta != 1e-3 {
		t.Fatalf("defaults not applied: %+v", p)
	}
	if p.Capacity <= 1 {
		t.Fatalf("auto capacity %d implausibly small for exact sealed D=4096", p.Capacity)
	}
}

func TestAddRejectsShort(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 1024, Window: 32, Seed: 2})
	if err := lib.Add(genome.Record{ID: "short", Seq: genome.Random(10, rng.New(1))}); err == nil {
		t.Fatal("short reference accepted")
	}
	if err := lib.Add(genome.Record{ID: "ok", Seq: genome.Random(100, rng.New(2))}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	if err := lib.Add(genome.Record{ID: "late", Seq: genome.Random(10, rng.New(3))}); err == nil {
		t.Fatal("short reference accepted after Freeze")
	}
}

func TestAddAfterFreeze(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 2048, Window: 24, Approx: true, MutTolerance: 2, Seed: 2})
	first := genome.Random(200, rng.New(20))
	if err := lib.Add(genome.Record{ID: "first", Seq: first}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	late := genome.Random(200, rng.New(21))
	if err := lib.Add(genome.Record{ID: "late", Seq: late}); err != nil {
		t.Fatalf("Add after Freeze rejected: %v", err)
	}
	if lib.NumRefs() != 2 {
		t.Fatalf("NumRefs = %d, want 2", lib.NumRefs())
	}
	// The late reference is immediately searchable, and the first one
	// still is.
	for i, seq := range []*genome.Sequence{first, late} {
		matches, _, err := lib.Lookup(seq.Slice(40, 64))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range matches {
			if m.Ref == i && m.Off == 40 {
				found = true
			}
		}
		if !found {
			t.Fatalf("ref %d window not found after live ingest: %+v", i, matches)
		}
	}
}

func TestAutoSealThreshold(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 1024, Window: 16, Capacity: 8, Seed: 22})
	if err := lib.Add(genome.Record{ID: "r0", Seq: genome.Random(100, rng.New(23))}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	lib.SetSealThreshold(2)
	src := rng.New(24)
	for i := 0; i < 4; i++ {
		if err := lib.Add(genome.Record{ID: "r", Seq: genome.Random(100, src)}); err != nil {
			t.Fatal(err)
		}
	}
	// 100-base refs at window 16 yield 85 windows = 11 buckets each, far
	// past the threshold of 2, so every post-freeze Add seals the active
	// segment: snapshot = 5 sealed segments (no active view left open).
	if got := lib.Counters().SegmentSeals; got != 4 {
		t.Fatalf("SegmentSeals = %d, want 4", got)
	}
	if got := lib.NumSegments(); got != 5 {
		t.Fatalf("NumSegments = %d, want 5", got)
	}
	infos := lib.Segments()
	total := 0
	for _, si := range infos {
		total += si.Windows
	}
	if total != 5*85 {
		t.Fatalf("segment windows total %d, want %d", total, 5*85)
	}
}

func TestLibraryBookkeeping(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 1024, Window: 16, Capacity: 10, Seed: 3})
	src := rng.New(4)
	for i := 0; i < 3; i++ {
		if err := lib.Add(genome.Record{ID: "r", Seq: genome.Random(55, src)}); err != nil {
			t.Fatal(err)
		}
	}
	// Each 55-base reference has 40 windows at stride 1.
	if lib.NumWindows() != 120 {
		t.Fatalf("NumWindows = %d, want 120", lib.NumWindows())
	}
	if lib.NumRefs() != 3 {
		t.Fatalf("NumRefs = %d", lib.NumRefs())
	}
	if lib.Describe().Buckets != 12 {
		t.Fatalf("NumBuckets = %d, want 120/10", lib.Describe().Buckets)
	}
	total := 0
	for i := 0; i < lib.Describe().Buckets; i++ {
		ws := lib.BucketWindows(i)
		if len(ws) > 10 {
			t.Fatalf("bucket %d has %d windows > capacity", i, len(ws))
		}
		total += len(ws)
	}
	if total != 120 {
		t.Fatalf("bucket windows total %d", total)
	}
}

func TestStrideReducesWindows(t *testing.T) {
	for _, stride := range []int{1, 4, 16} {
		lib := mustLibrary(t, Params{Dim: 1024, Window: 16, Stride: stride, Capacity: 100, Seed: 5})
		if err := lib.Add(genome.Record{ID: "r", Seq: genome.Random(200, rng.New(6))}); err != nil {
			t.Fatal(err)
		}
		want := (200-16)/stride + 1
		if lib.NumWindows() != want {
			t.Fatalf("stride %d: %d windows, want %d", stride, lib.NumWindows(), want)
		}
	}
}

// TestStrideMemorizesAlignedWindows pins which windows a build
// memorizes: per reference exactly the offsets 0, s, 2s, … ≤ len − W, in
// that order, as many as Encoder.NumWindows counts, and nothing of a
// reference shorter than one window.
func TestStrideMemorizesAlignedWindows(t *testing.T) {
	const window = 16
	lens := []int{100, window, 57}
	for _, stride := range []int{1, 4, 7} {
		lib := mustLibrary(t, Params{Dim: 1024, Window: window, Stride: stride, Capacity: 5, Seed: 5})
		want := 0
		for i, n := range lens {
			if err := lib.Add(genome.Record{ID: "r", Seq: genome.Random(n, rng.New(uint64(6+i)))}); err != nil {
				t.Fatal(err)
			}
			want += (n-window)/stride + 1 // every length here is ≥ window
		}
		if err := lib.Add(genome.Record{ID: "short", Seq: genome.Random(window-1, rng.New(9))}); err == nil {
			t.Fatalf("stride %d: reference shorter than one window accepted", stride)
		}
		lib.Freeze()
		if lib.NumWindows() != want || lib.NumRefs() != len(lens) {
			t.Fatalf("stride %d: %d windows of %d refs, want %d of %d", stride, lib.NumWindows(), lib.NumRefs(), want, len(lens))
		}
		// Routing files windows by content, not in offset order: gather
		// each reference's offsets, then walk them in order.
		offs := make([][]int, len(lens))
		for b := 0; b < lib.Describe().Buckets; b++ {
			for _, wr := range lib.BucketWindows(b) {
				offs[wr.Ref] = append(offs[wr.Ref], int(wr.Off))
			}
		}
		next := make([]int, len(lens))
		for r := range offs {
			slices.Sort(offs[r])
			for _, off := range offs[r] {
				if off != next[r] {
					t.Fatalf("stride %d: ref %d memorized offset %d, want %d", stride, r, off, next[r])
				}
				next[r] += stride
			}
		}
		for i, n := range lens {
			if last := next[i] - stride; last > n-window || last+stride <= n-window {
				t.Fatalf("stride %d: ref %d (length %d) stops at offset %d", stride, i, n, last)
			}
		}
	}
}

func TestFreezeIdempotent(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 1024, Window: 16, Seed: 7})
	if err := lib.Add(genome.Record{ID: "r", Seq: genome.Random(64, rng.New(8))}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	if !lib.Describe().Frozen {
		t.Fatal("not frozen")
	}
	lib.Freeze() // second call is a no-op
	if !lib.Describe().Frozen {
		t.Fatal("freeze undone")
	}
}

func TestMemoryFootprint(t *testing.T) {
	const dim = 1024
	lib := mustLibrary(t, Params{Dim: dim, Window: 16, Capacity: 8, Seed: 9})
	if err := lib.Add(genome.Record{ID: "r", Seq: genome.Random(100, rng.New(10))}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	// A frozen footprint counts everything resident on the search path:
	// the packed probe arena (D/8 bytes per bucket) and the window
	// metadata (8 bytes per WindowRef).
	nB, nW := int64(lib.Describe().Buckets), int64(lib.NumWindows())
	if got, want := lib.MemoryFootprint(), nB*dim/8+nW*8; got != want {
		t.Fatalf("footprint %d, want arena+metadata %d", got, want)
	}
}

func TestProbeRequiresFreeze(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 1024, Window: 16, Seed: 11})
	if err := lib.Add(genome.Record{ID: "r", Seq: genome.Random(64, rng.New(12))}); err != nil {
		t.Fatal(err)
	}
	q := lib.Encoder().EncodeWindowExact(genome.Random(16, rng.New(13)), 0)
	if _, err := lib.Probe(q, nil); err == nil {
		t.Fatal("Probe before Freeze accepted")
	}
	if _, _, err := lib.Lookup(genome.Random(16, rng.New(14))); err == nil {
		t.Fatal("Lookup before Freeze accepted")
	}
}

func TestRefAccessor(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 1024, Window: 16, Seed: 15})
	seq := genome.Random(64, rng.New(16))
	if err := lib.Add(genome.Record{ID: "myref", Description: "d", Seq: seq}); err != nil {
		t.Fatal(err)
	}
	rec := lib.Ref(0)
	if rec.ID != "myref" || !rec.Seq.Equal(seq) {
		t.Fatalf("Ref(0) = %+v", rec)
	}
}

package cobs

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

// TestCompactColumnsEqualFreshBuild is the bit-sliced twin of
// internal/core's TestCompactRowsEqualFreshBuild: references are removed
// from a segment built before Freeze, from a live ingest sealed, and
// from the active builder, and the compacted index — on the heap, and
// reopened from its file on the mapped tier — is held to a fresh build
// of the survivors: segment by segment the same arena words, and in
// every column the same reference and window count.
func TestCompactColumnsEqualFreshBuild(t *testing.T) {
	src := rng.New(0xc0b5)
	// Reference lengths per stage: stage 0 is built before Freeze,
	// stage 1 is live ingest that gets sealed, stage 2 stays in the
	// builder.
	stages := [][]int{{300, 90, 500, 120}, {200, 70, 150, 400}, {100, 250, 80}}
	removed := map[string]bool{"s0r1": true, "s0r3": true, "s1r0": true, "s1r2": true, "s2r1": true, "s2r2": true}
	type stagedRec struct {
		stage int
		rec   genome.Record
	}
	var all []stagedRec
	for s, lens := range stages {
		for r, n := range lens {
			all = append(all, stagedRec{s, genome.Record{ID: fmt.Sprintf("s%dr%d", s, r), Seq: genome.Random(n, src)}})
		}
	}
	build := func(keep func(id string) bool) *Index {
		t.Helper()
		x := mustIndex(t, testParams)
		for s := range stages {
			for _, sr := range all {
				if sr.stage != s || !keep(sr.rec.ID) {
					continue
				}
				if sr.rec.ID == "s1r3" { // this Add seals the builder
					x.SetSealThreshold(1)
				}
				if err := x.Add(sr.rec); err != nil {
					t.Fatal(err)
				}
				x.SetSealThreshold(0)
			}
			if s == 0 {
				x.Freeze()
			}
		}
		if x.NumSegments() != 3 {
			t.Fatalf("NumSegments = %d, want stages 0 and 1 sealed and the builder", x.NumSegments())
		}
		return x
	}
	removeAndCompact := func(x *Index, when string) {
		t.Helper()
		for i := 0; i < x.NumRefs(); i++ {
			if removed[x.Ref(i).ID] {
				if err := x.Remove(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n, err := x.Compact(0); err != nil || n != 3 {
			t.Fatalf("%s: Compact rewrote %d segments, %v; want all three", when, n, err)
		}
	}
	fresh := build(func(id string) bool { return !removed[id] })
	defer fresh.Close()

	heap := build(func(string) bool { return true })
	defer heap.Close()
	path := filepath.Join(t.TempDir(), "cobs.v3")
	if err := os.WriteFile(path, writeV3(t, heap), 0o644); err != nil {
		t.Fatal(err)
	}
	removeAndCompact(heap, "heap")
	requireSameColumns(t, heap, fresh, "heap, builder compacted in place")

	// The file holds the builder as a third sealed segment.
	idx, err := core.OpenLibraryFile(path, core.MapArena)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	removeAndCompact(idx.(*Index), "mapped")
	requireSameColumns(t, idx.(*Index), fresh, fmt.Sprintf("reopened (mapped %v)", idx.Mapped()))
}

// requireSameColumns holds got's segments to want's: the same arena
// words, and column by column the same reference (by ID) and window
// count, with no tombstones left.
func requireSameColumns(t *testing.T, got, want *Index, when string) {
	t.Helper()
	gv, wv := viewOf(mustPin(t, got)), viewOf(mustPin(t, want))
	if len(gv.segs) != len(wv.segs) {
		t.Fatalf("%s: %d segments, fresh build %d", when, len(gv.segs), len(wv.segs))
	}
	for k, g := range gv.segs {
		w := wv.segs[k]
		if g.NumBuckets() != w.NumBuckets() || g.colWords != w.colWords || !slices.Equal(g.arenaWords(), w.arenaWords()) {
			t.Fatalf("%s: segment %d: %d columns in %d words, fresh build %d in %d, or the arenas differ",
				when, k, g.NumBuckets(), g.colWords, w.NumBuckets(), w.colWords)
		}
		for j := 0; j < g.NumBuckets(); j++ {
			gr, gw := g.column(j)
			wr, ww := w.column(j)
			if got.Ref(int(gr)).ID != want.Ref(int(wr)).ID || gw != ww {
				t.Fatalf("%s: segment %d column %d: %s with %d windows, fresh build %s with %d",
					when, k, j, got.Ref(int(gr)).ID, gw, want.Ref(int(wr)).ID, ww)
			}
		}
	}
	if gi, wi := got.Segments(), want.Segments(); !slices.Equal(gi, wi) {
		t.Fatalf("%s: segments %+v, fresh build %+v", when, gi, wi)
	}
}

package core

import (
	"fmt"
	"testing"

	"repro/internal/genome"
	"repro/internal/hdc"
	"repro/internal/rng"
)

// Sealed buckets are bundled by row fold (hdc.Rows) at three moments —
// a bucket closing, a post-freeze publish isolating the open bucket, a
// compaction rebuilding a segment — and these tests hold every one of
// them to the counter bundle, hdc.Bundle, which no sealed build runs.

// CheckRowsAreBundles asserts that every bucket row of the frozen
// library is hdc.Bundle of its members' encodings. seqs holds every
// reference ever added, by reference index, so that the members of
// tombstoned references — still superposed — can be re-encoded. It is
// exported for the conformance suite (package core_test), which runs it
// over what its churn schedule leaves behind.
func CheckRowsAreBundles(t *testing.T, lib *Library, seqs []*genome.Sequence, when string) {
	t.Helper()
	p := lib.Params()
	for i := 0; i < lib.Describe().Buckets; i++ {
		var members []*hdc.HV
		for _, wr := range lib.BucketWindows(i) {
			if p.Approx {
				members = append(members, lib.Encoder().EncodeWindowApprox(seqs[wr.Ref], int(wr.Off)))
			} else {
				members = append(members, lib.Encoder().EncodeWindowExact(seqs[wr.Ref], int(wr.Off)))
			}
		}
		if want := hdc.Bundle(p.Dim, p.Seed^tieSeedMix, members...); !lib.BucketVector(i).Equal(want) {
			t.Fatalf("%s: bucket %d of %d (occupancy %d) differs from the counter bundle in %d bits",
				when, i, lib.Describe().Buckets, len(members), lib.BucketVector(i).Hamming(want))
		}
	}
}

var bundleGeometries = []struct {
	name string
	p    Params
}{
	{"exact-C16", Params{Dim: 1024, Window: 16, Capacity: 16, Seed: 21}},
	{"approx-C5", Params{Dim: 1024, Window: 16, Capacity: 5, Approx: true, MutTolerance: 1, Seed: 22}},
}

// TestLiveIngestRowsAreBundles adds references to a frozen library so
// that the open bucket is published at every occupancy from 1 to C —
// odd and even, the full bucket no insert has closed yet included —
// across two bucket boundaries one window at a time, then in strides
// that close a bucket mid-reference, and checks every row after every
// publish; a seal in the middle moves the partly filled bucket into a
// sealed segment.
func TestLiveIngestRowsAreBundles(t *testing.T) {
	for _, g := range bundleGeometries {
		t.Run(g.name, func(t *testing.T) {
			lib, err := NewLibrary(g.p)
			if err != nil {
				t.Fatal(err)
			}
			defer lib.Close()
			src := rng.New(g.p.Seed)
			var seqs []*genome.Sequence
			add := func(windows int) {
				t.Helper()
				seq := genome.Random(g.p.Window+windows-1, src)
				seqs = append(seqs, seq)
				if err := lib.Add(genome.Record{ID: fmt.Sprintf("r%d", len(seqs)), Seq: seq}); err != nil {
					t.Fatal(err)
				}
			}
			add(3)
			lib.Freeze()
			CheckRowsAreBundles(t, lib, seqs, "after Freeze")
			c := g.p.Capacity
			for i := 0; i < 2*c+2; i++ {
				add(1)
				CheckRowsAreBundles(t, lib, seqs, fmt.Sprintf("one-window Add %d", i))
			}
			lib.SetSealThreshold(lib.Describe().Buckets - 1) // the next Add seals the builder, open bucket and all
			for i, windows := range []int{2, c - 1, c + 1, 2*c + 3, 1} {
				add(windows)
				CheckRowsAreBundles(t, lib, seqs, fmt.Sprintf("%d-window Add %d", windows, i))
			}
			if lib.NumSegments() < 2 {
				t.Fatalf("NumSegments = %d: live ingest never sealed", lib.NumSegments())
			}
		})
	}
}

// TestCompactRowsEqualFreshBuild removes references from a sealed
// segment, from one live ingest sealed, and from the active builder, and
// holds the compacted library to a fresh build of the survivors: same
// buckets, same members, same rows.
func TestCompactRowsEqualFreshBuild(t *testing.T) {
	for _, g := range bundleGeometries {
		t.Run(g.name, func(t *testing.T) {
			src := rng.New(g.p.Seed + 100)
			c := g.p.Capacity
			// Window counts that leave buckets partly filled on both sides
			// of every removal; stage 0 is built before Freeze, stage 1 is
			// live ingest that gets sealed, stage 2 stays in the builder.
			stages := [][]int{{c + 2, 3, 2 * c, 1}, {2, c + 1, 5, c}, {4, 1, c + 3, 2}}
			removed := map[string]bool{"s0r1": true, "s0r3": true, "s1r0": true, "s1r2": true, "s2r1": true, "s2r2": true}
			type stagedRec struct {
				stage int
				rec   genome.Record
			}
			var all []stagedRec
			for s, counts := range stages {
				for r, windows := range counts {
					all = append(all, stagedRec{s, genome.Record{
						ID: fmt.Sprintf("s%dr%d", s, r), Seq: genome.Random(g.p.Window+windows-1, src)}})
				}
			}
			// build adds the kept records stage by stage: Freeze after
			// stage 0, a seal of the builder at the end of stage 1.
			build := func(keep func(id string) bool) (*Library, []*genome.Sequence) {
				t.Helper()
				lib, err := NewLibrary(g.p)
				if err != nil {
					t.Fatal(err)
				}
				var seqs []*genome.Sequence
				for s := range stages {
					for _, sr := range all {
						if sr.stage != s || !keep(sr.rec.ID) {
							continue
						}
						seqs = append(seqs, sr.rec.Seq)
						if sr.rec.ID == "s1r3" { // this Add seals the builder
							lib.SetSealThreshold(1)
						}
						if err := lib.Add(sr.rec); err != nil {
							t.Fatal(err)
						}
						lib.SetSealThreshold(0)
					}
					if s == 0 {
						lib.Freeze()
					}
				}
				if lib.NumSegments() != 3 {
					t.Fatalf("NumSegments = %d, want stages 0 and 1 sealed and the builder", lib.NumSegments())
				}
				return lib, seqs
			}
			lib, seqs := build(func(string) bool { return true })
			defer lib.Close()
			for i := 0; i < lib.NumRefs(); i++ {
				if removed[lib.Ref(i).ID] {
					if err := lib.Remove(i); err != nil {
						t.Fatal(err)
					}
				}
			}
			CheckRowsAreBundles(t, lib, seqs, "after Remove") // tombstoned members stay superposed
			if n, err := lib.Compact(0); err != nil || n != 3 {
				t.Fatalf("Compact rewrote %d segments, %v; want the two sealed ones and the builder", n, err)
			}
			CheckRowsAreBundles(t, lib, seqs, "after Compact")

			fresh, _ := build(func(id string) bool { return !removed[id] })
			defer fresh.Close()
			if lib.Describe().Buckets != fresh.Describe().Buckets || lib.NumWindows() != fresh.NumWindows() {
				t.Fatalf("compacted: %d buckets, %d windows; fresh build of the survivors: %d, %d",
					lib.Describe().Buckets, lib.NumWindows(), fresh.Describe().Buckets, fresh.NumWindows())
			}
			for i := 0; i < lib.Describe().Buckets; i++ {
				got, want := lib.BucketWindows(i), fresh.BucketWindows(i)
				if len(got) != len(want) {
					t.Fatalf("bucket %d holds %d windows, fresh build %d", i, len(got), len(want))
				}
				for k := range got {
					if lib.Ref(int(got[k].Ref)).ID != fresh.Ref(int(want[k].Ref)).ID || got[k].Off != want[k].Off {
						t.Fatalf("bucket %d member %d: %v vs fresh %v", i, k, got[k], want[k])
					}
				}
				if !lib.BucketVector(i).Equal(fresh.BucketVector(i)) {
					t.Fatalf("bucket %d differs from the fresh build in %d bits", i, lib.BucketVector(i).Hamming(fresh.BucketVector(i)))
				}
			}
		})
	}
}

package core

import (
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

func TestAddConcurrentMatchesSequential(t *testing.T) {
	src := rng.New(201)
	recs := make([]genome.Record, 6)
	for i := range recs {
		recs[i] = genome.Record{ID: string(rune('a' + i)), Seq: genome.Random(800, src)}
	}
	params := Params{Dim: 4096, Window: 32, Seed: 202}

	seq := mustLibrary(t, params)
	for _, rec := range recs {
		if err := seq.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	seq.Freeze()

	for _, workers := range []int{1, 3, 8} {
		conc := mustLibrary(t, params)
		if err := conc.AddConcurrent(recs, workers); err != nil {
			t.Fatal(err)
		}
		conc.Freeze()
		if conc.Describe().Buckets != seq.Describe().Buckets || conc.NumWindows() != seq.NumWindows() {
			t.Fatalf("workers=%d: shape %d/%d vs %d/%d", workers,
				conc.Describe().Buckets, conc.NumWindows(), seq.Describe().Buckets, seq.NumWindows())
		}
		for b := 0; b < seq.Describe().Buckets; b++ {
			if !conc.BucketVector(b).Equal(seq.BucketVector(b)) {
				t.Fatalf("workers=%d: bucket %d differs from sequential build", workers, b)
			}
			sw, cw := seq.BucketWindows(b), conc.BucketWindows(b)
			for k := range sw {
				if sw[k] != cw[k] {
					t.Fatalf("workers=%d: bucket %d window %d metadata differs", workers, b, k)
				}
			}
		}
	}
}

func TestAddConcurrentApproxMatchesSequential(t *testing.T) {
	src := rng.New(203)
	recs := []genome.Record{
		{ID: "a", Seq: genome.Random(400, src)},
		{ID: "b", Seq: genome.Random(400, src)},
	}
	params := Params{Dim: 2048, Window: 24, Approx: true,
		Capacity: 4, MutTolerance: 3, Seed: 204}
	seq := mustLibrary(t, params)
	for _, rec := range recs {
		if err := seq.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	seq.Freeze()
	conc := mustLibrary(t, params)
	if err := conc.AddConcurrent(recs, 4); err != nil {
		t.Fatal(err)
	}
	conc.Freeze()
	for b := 0; b < seq.Describe().Buckets; b++ {
		if !conc.BucketVector(b).Equal(seq.BucketVector(b)) {
			t.Fatalf("approx bucket %d differs", b)
		}
	}
	// Calibration (derived from identical contents) must agree too.
	cs, _ := seq.Calibration()
	cc, _ := conc.Calibration()
	if cs != cc {
		t.Fatalf("calibrations differ: %+v vs %+v", cs, cc)
	}
}

func TestAddConcurrentErrors(t *testing.T) {
	params := Params{Dim: 1024, Window: 32, Seed: 205}
	lib := mustLibrary(t, params)
	recs := []genome.Record{
		{ID: "ok", Seq: genome.Random(100, rng.New(206))},
		{ID: "short", Seq: genome.Random(10, rng.New(207))},
		{ID: "after", Seq: genome.Random(100, rng.New(208))},
	}
	if err := lib.AddConcurrent(recs, 2); err == nil {
		t.Fatal("short reference accepted")
	}
	// Nothing after the failing record was inserted.
	if lib.NumRefs() > 1 {
		t.Fatalf("%d refs inserted after failure", lib.NumRefs())
	}
	// A frozen library accepts AddConcurrent as live bulk ingest: the
	// batch lands in the active segment and one snapshot covers it.
	frozen, _ := buildExactLib(t, 500, 210)
	refsBefore := frozen.NumRefs()
	if err := frozen.AddConcurrent(recs[:1], 2); err != nil {
		t.Fatalf("AddConcurrent after Freeze rejected: %v", err)
	}
	if frozen.NumRefs() != refsBefore+1 {
		t.Fatalf("NumRefs = %d, want %d", frozen.NumRefs(), refsBefore+1)
	}
	if m, _, _ := frozen.Lookup(recs[0].Seq.Slice(0, 32)); len(m) == 0 {
		t.Fatal("bulk-ingested reference not searchable")
	}
}

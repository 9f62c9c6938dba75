package pim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

func TestEncodeInMemoryMatchesSoftware(t *testing.T) {
	lib := buildLib(t, 2048, 24, 1, 500, 91)
	eng, err := NewEngine(DefaultChipConfig(), lib)
	if err != nil {
		t.Fatal(err)
	}
	ref := lib.Ref(0).Seq
	src := rng.New(92)
	for trial := 0; trial < 10; trial++ {
		start := src.Intn(ref.Len() - 24)
		got, cost, err := eng.EncodeInMemory(ref, start)
		if err != nil {
			t.Fatal(err)
		}
		want := lib.Encoder().EncodeWindowExact(ref, start)
		if !got.Equal(want) {
			t.Fatalf("start=%d: in-memory encoding differs from software", start)
		}
		// The op sequence run here is the one EncodeCost charges F7 and T3.
		if want := eng.EncodeCost(false, 24).Counts; cost.Counts != want {
			t.Fatalf("in-memory op counts %v, EncodeCost charges %v", cost.Counts, want)
		}
	}
}

func TestEncodeInMemoryThenSearch(t *testing.T) {
	// Full in-memory pipeline: encode in memory, search in memory, get
	// the same matches software gets.
	lib := buildLib(t, 8192, 32, 1, 2000, 93)
	eng, err := NewEngine(DefaultChipConfig(), lib)
	if err != nil {
		t.Fatal(err)
	}
	ref := lib.Ref(0).Seq
	hv, _, err := eng.EncodeInMemory(ref, 444)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eng.Search(hv)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lib.Probe(lib.Encoder().EncodeWindowExact(ref, 444), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("in-memory pipeline candidates %v vs software %v", got, want)
	}
}

func TestEncodeInMemoryValidation(t *testing.T) {
	lib := buildLib(t, 1024, 16, 1, 200, 94)
	eng, err := NewEngine(DefaultChipConfig(), lib)
	if err != nil {
		t.Fatal(err)
	}
	ref := lib.Ref(0).Seq
	if _, _, err := eng.EncodeInMemory(ref, ref.Len()); err == nil {
		t.Fatal("overrunning window accepted")
	}
	// Approximate libraries are rejected.
	alib, err := core.NewLibrary(core.Params{
		Dim: 1024, Window: 16, Approx: true, Capacity: 2,
		MutTolerance: 2, Seed: 95,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := alib.Add(genome.Record{ID: "r", Seq: genome.Random(200, rng.New(96))}); err != nil {
		t.Fatal(err)
	}
	alib.Freeze()
	aeng, err := NewEngine(DefaultChipConfig(), alib)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := aeng.EncodeInMemory(alib.Ref(0).Seq, 0); err == nil {
		t.Fatal("approx in-memory encode accepted")
	}
}

func TestEncodeApproxInMemoryMatchesSoftware(t *testing.T) {
	alib, err := core.NewLibrary(core.Params{
		Dim: 2048, Window: 17, Approx: true, Capacity: 2,
		MutTolerance: 2, Seed: 101,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := genome.Random(600, rng.New(102))
	if err := alib.Add(genome.Record{ID: "r", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	alib.Freeze()
	eng, err := NewEngine(DefaultChipConfig(), alib)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(103)
	for trial := 0; trial < 8; trial++ {
		start := src.Intn(ref.Len() - 17)
		got, cost, err := eng.EncodeApproxInMemory(ref, start)
		if err != nil {
			t.Fatal(err)
		}
		want := alib.Encoder().EncodeWindowApprox(ref, start)
		if !got.Equal(want) {
			t.Fatalf("start=%d: in-memory approx encoding differs", start)
		}
		if want := eng.EncodeCost(true, 17).Counts; cost.Counts != want {
			t.Fatalf("in-memory op counts %v, EncodeCost charges %v", cost.Counts, want)
		}
	}
	// Exact libraries are rejected.
	elib := buildLib(t, 1024, 16, 1, 200, 104)
	eeng, err := NewEngine(DefaultChipConfig(), elib)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eeng.EncodeApproxInMemory(elib.Ref(0).Seq, 0); err == nil {
		t.Fatal("exact library accepted")
	}
	// Overrun rejected.
	if _, _, err := eng.EncodeApproxInMemory(ref, ref.Len()); err == nil {
		t.Fatal("overrunning window accepted")
	}
}

func TestEncodeApproxInMemoryThenSearch(t *testing.T) {
	alib, err := core.NewLibrary(core.Params{
		Dim: 8192, Window: 48, Approx: true, Capacity: 2,
		MutTolerance: 4, Seed: 105,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := genome.Random(1500, rng.New(106))
	if err := alib.Add(genome.Record{ID: "r", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	alib.Freeze()
	eng, err := NewEngine(DefaultChipConfig(), alib)
	if err != nil {
		t.Fatal(err)
	}
	hv, _, err := eng.EncodeApproxInMemory(ref, 333)
	if err != nil {
		t.Fatal(err)
	}
	cands, _, err := eng.Search(hv)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("in-memory approx pipeline found nothing for a planted window")
	}
}

package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

func buildApproxLib(t *testing.T, refLen int, seed uint64) *Library {
	t.Helper()
	ref := genome.Random(refLen, rng.New(seed))
	lib := mustLibrary(t, Params{
		Dim: 8192, Window: 48, Approx: true,
		Capacity: 4, MutTolerance: 6, Seed: seed + 1,
	})
	if err := lib.Add(genome.Record{ID: "ref", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	return lib
}

func TestCalibrationPresent(t *testing.T) {
	lib := buildApproxLib(t, 2000, 1)
	cal, ok := lib.Calibration()
	if !ok {
		t.Fatal("approx library has no calibration after Freeze")
	}
	if cal.Samples != calibrationProbes {
		t.Fatalf("samples = %d", cal.Samples)
	}
	// Signal must sit well above noise, the threshold between them.
	if cal.SignalMean <= cal.NoiseMean {
		t.Fatalf("signal %v not above noise %v", cal.SignalMean, cal.NoiseMean)
	}
	if cal.Tau <= cal.NoiseMean || cal.Tau >= cal.SignalMean {
		t.Fatalf("tau %v not between noise %v and signal %v",
			cal.Tau, cal.NoiseMean, cal.SignalMean)
	}
	if lib.Describe().Threshold != cal.Tau {
		t.Fatal("Threshold() does not return calibrated tau")
	}
}

func TestCalibrationAbsentForExact(t *testing.T) {
	lib, _ := buildExactLib(t, 1000, 2)
	if _, ok := lib.Calibration(); ok {
		t.Fatal("exact library reports calibration")
	}
}

func TestCalibrationAbsentBeforeFreeze(t *testing.T) {
	lib := mustLibrary(t, Params{
		Dim: 1024, Window: 16, Approx: true, Capacity: 4, Seed: 3,
	})
	if err := lib.Add(genome.Record{ID: "r", Seq: genome.Random(100, rng.New(4))}); err != nil {
		t.Fatal(err)
	}
	if _, ok := lib.Calibration(); ok {
		t.Fatal("unfrozen library reports calibration")
	}
}

func TestCalibrationDeterministic(t *testing.T) {
	a := buildApproxLib(t, 1500, 5)
	b := buildApproxLib(t, 1500, 5)
	ca, _ := a.Calibration()
	cb, _ := b.Calibration()
	if ca != cb {
		t.Fatalf("calibrations differ for identical builds:\n%+v\n%+v", ca, cb)
	}
}

func TestCalibratedRecallAtTolerance(t *testing.T) {
	// Statistical acceptance: at a geometry where the model deems both
	// error targets satisfiable (C=2, D=8192), the library must find
	// ≥ 95% of 6-substitution queries.
	ref := genome.Random(3000, rng.New(6))
	lib := mustLibrary(t, Params{
		Dim: 8192, Window: 48, Approx: true,
		Capacity: 2, MutTolerance: 6, Seed: 7,
	})
	if err := lib.Add(genome.Record{ID: "ref", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	src := rng.New(8)
	found, trials := 0, 60
	for i := 0; i < trials; i++ {
		off := src.Intn(ref.Len() - 48)
		mut, _ := genome.SubstituteExactly(ref.Slice(off, off+48), 6, src)
		matches, _, err := lib.Lookup(mut)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			if m.Off == off {
				found++
				break
			}
		}
	}
	if frac := float64(found) / float64(trials); frac < 0.95 {
		t.Fatalf("recall at tolerance = %v (%d/%d)", frac, found, trials)
	}
}

func TestFreezeEmptyLibraryStaysUnfrozen(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 1024, Window: 16, Approx: true, Capacity: 2, Seed: 9})
	lib.Freeze()
	if lib.Describe().Frozen {
		t.Fatal("empty library froze")
	}
}

// TestCalibrationPinned pins Calibration — and with it Tau and every v3
// header — for a fixed seeded approximate library against values
// captured from the counter-based encoder at commit cf1b407. calibrate
// encodes its probes through the query-side kernel; any bit the encoder
// changes, or any draw calibrate reorders, moves these floats.
func TestCalibrationPinned(t *testing.T) {
	lib := mustLibrary(t, Params{
		Dim: 4096, Window: 32, Approx: true, MutTolerance: 2, Seed: 77,
	})
	src := rng.New(78)
	for _, id := range []string{"a", "b", "c"} {
		if err := lib.Add(genome.Record{ID: id, Seq: genome.Random(300, src)}); err != nil {
			t.Fatal(err)
		}
	}
	lib.Freeze()
	check := func(stage string, want [5]uint64) {
		t.Helper()
		cal, ok := lib.Calibration()
		if !ok {
			t.Fatalf("%s: no calibration", stage)
		}
		got := [5]uint64{
			math.Float64bits(cal.NoiseMean), math.Float64bits(cal.NoiseStd),
			math.Float64bits(cal.SignalMean), math.Float64bits(cal.SignalStd),
			math.Float64bits(cal.Tau),
		}
		if got != want {
			t.Fatalf("%s: calibration moved:\n got %#x\nwant %#x\n(%+v)", stage, got, want, cal)
		}
	}
	check("after Freeze", [5]uint64{
		0x408419eaaaaaaaac, 0x406a6f501817f6cf, 0x40a91df000000001, 0x40430171bb10bb68, 0x40a280c9de6ef9a6})
	// Tombstones present: the signal side samples live members only, and
	// so — one window a row, stored as its sketch, with nothing left to
	// re-encode a removed window from — does the noise side, which draws
	// another row for a probe that hit a removed one and still scores
	// all 192 probes (the values from cf1b407 were 0x408419eaaaaaaaac,
	// 0x406a6f501817f6cf for the noise, 0x40a2796473a825ef for Tau;
	// skipping such probes instead scored 139, noise mean 666.3).
	if err := lib.Remove(1); err != nil {
		t.Fatal(err)
	}
	check("after Remove", [5]uint64{
		0x408498c000000004, 0x406ace6a80e563e5, 0x40a9241000000000, 0x404355737b7a9e13, 0x40a29facbfe51abd})
	if err := lib.Add(genome.Record{ID: "d", Seq: genome.Random(200, src)}); err != nil {
		t.Fatal(err)
	}
	check("after Add", [5]uint64{ // the tombstones stay: noise and Tau moved as above (cf1b407: 0x4084c70000000004, 0x406b07b6b83f31b0, 0x40a2b1884be4e907)
		0x4084e16aaaaaaaab, 0x406aa49d16965263, 0x40a9239aaaaaaaac, 0x40439678f7bf626e, 0x40a2a9090f39b85e})
	if cal, _ := lib.Calibration(); cal.Samples != calibrationProbes {
		t.Fatalf("after Add: %d noise probes scored, want %d", cal.Samples, calibrationProbes)
	}
}

// TestSketchRowsCalibrateAsWholeRows: a library whose rows are their
// sketches re-encodes each calibration probe's row, and so calibrates —
// and plans its views — bit for bit as the same library storing whole
// rows does, as long as no window is tombstoned: after Freeze, after
// sealed Adds, and after a Remove has been compacted away.
func TestSketchRowsCalibrateAsWholeRows(t *testing.T) {
	p := approxCascadeParams
	lib, whole := mustLibrary(t, p), mustLibrary(t, p)
	whole.rowWords, whole.prefix = p.Dim/64, nil
	if lib.rowWords != lib.sketchWords || lib.rowWords == whole.rowWords {
		t.Fatalf("rows of %d and %d words: want sketches against whole rows", lib.rowWords, whole.rowWords)
	}
	check := func(stage string) {
		t.Helper()
		a, b := hdcOf(lib.snap.Load()), hdcOf(whole.snap.Load())
		if a.cal != b.cal {
			t.Fatalf("%s: calibration %+v, whole rows %+v", stage, a.cal, b.cal)
		}
		pa, pb := a.plan, b.plan
		if pa.tau != pb.tau || pa.maxHam != pb.maxHam || pa.sketchBound != pb.sketchBound || pa.survive != pb.survive || !pa.oneStage {
			t.Fatalf("%s: plan %+v, whole rows %+v", stage, pa, pb)
		}
	}
	src := rng.New(0xca11)
	var recs []genome.Record
	for i := 0; i < 6; i++ {
		recs = append(recs, genome.Record{ID: fmt.Sprint("r", i), Seq: genome.Random(120+40*i, src)})
	}
	for _, l := range []*Library{lib, whole} {
		for _, rec := range recs[:3] {
			if err := l.Add(rec); err != nil {
				t.Fatal(err)
			}
		}
		l.Freeze()
	}
	check("after Freeze")
	for _, l := range []*Library{lib, whole} {
		l.SetSealThreshold(1)
		for _, rec := range recs[3:] {
			if err := l.Add(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after sealed Adds")
	for _, l := range []*Library{lib, whole} {
		if err := l.Remove(1); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Compact(0); err != nil {
			t.Fatal(err)
		}
	}
	check("after Remove and Compact")
}

// TestCalibrationWithoutLiveRows: a view whose rows are the sketches of
// removed windows only has no row a noise probe can score. It reports
// no samples and takes the model's threshold, as a view too small to
// spread its probes does.
func TestCalibrationWithoutLiveRows(t *testing.T) {
	lib := mustLibrary(t, approxCascadeParams)
	if lib.rowWords != lib.sketchWords {
		t.Fatalf("rows of %d words, sketch %d: want rows stored as their sketches", lib.rowWords, lib.sketchWords)
	}
	src := rng.New(0xdead)
	for _, id := range []string{"a", "b"} {
		if err := lib.Add(genome.Record{ID: id, Seq: genome.Random(64, src)}); err != nil {
			t.Fatal(err)
		}
	}
	lib.Freeze()
	for i := 0; i < 2; i++ {
		if err := lib.Remove(i); err != nil {
			t.Fatal(err)
		}
	}
	sn := hdcOf(lib.snap.Load())
	p := lib.Params()
	want := lib.modelWith(sn.maxOccupancy()).DecisionThreshold(p.Alpha, p.Beta, sn.numBuckets(), p.MutTolerance)
	if sn.cal.Samples != 0 || sn.cal.Tau != want {
		t.Fatalf("calibration %+v: want no samples and the model's threshold %v", sn.cal, want)
	}
}

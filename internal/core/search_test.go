package core

import (
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

// buildExactLib builds a frozen exact-mode library over one random
// reference of the given length.
func buildExactLib(t *testing.T, refLen int, seed uint64) (*Library, *genome.Sequence) {
	t.Helper()
	ref := genome.Random(refLen, rng.New(seed))
	lib := mustLibrary(t, Params{Dim: 8192, Window: 32, Seed: seed + 1})
	if err := lib.Add(genome.Record{ID: "ref", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	return lib, ref
}

func TestLookupExactFindsAllOccurrences(t *testing.T) {
	lib, ref := buildExactLib(t, 4000, 1)
	// Every window of the reference must be found at its position.
	for _, off := range []int{0, 1, 500, 1999, 4000 - 32} {
		pat := ref.Slice(off, off+32)
		matches, _, err := lib.Lookup(pat)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range matches {
			if m.Off == off && m.Ref == 0 && m.Distance == 0 {
				found = true
			}
			// Every reported match must be a real occurrence.
			if !ref.Slice(m.Off, m.Off+32).Equal(pat) {
				t.Fatalf("off=%d: bogus verified match %+v", off, m)
			}
		}
		if !found {
			t.Fatalf("occurrence at %d missed (got %+v)", off, matches)
		}
	}
}

func TestLookupExactRejectsAbsent(t *testing.T) {
	lib, ref := buildExactLib(t, 4000, 2)
	fp := 0
	for i := 0; i < 100; i++ {
		q := genome.Random(32, rng.New(uint64(1000+i)))
		if ref.Index(q, 0) >= 0 {
			continue // genuinely present, skip
		}
		matches, _, err := lib.Lookup(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) > 0 {
			fp++
		}
	}
	// Verification makes false positives impossible; this asserts the
	// full pipeline, not just the HDC filter.
	if fp != 0 {
		t.Fatalf("%d verified false positives", fp)
	}
}

func TestLookupExactOneMutationMisses(t *testing.T) {
	// The binding chain gives exact semantics: a single substitution
	// must not match.
	lib, ref := buildExactLib(t, 2000, 3)
	pat := ref.Slice(100, 132)
	mut, _ := genome.SubstituteExactly(pat, 1, rng.New(4))
	if ref.Index(mut, 0) >= 0 {
		t.Skip("mutated pattern occurs elsewhere by chance")
	}
	matches, _, err := lib.Lookup(mut)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("exact library matched a mutated pattern: %+v", matches)
	}
}

func TestLookupPatternTooShort(t *testing.T) {
	lib, _ := buildExactLib(t, 1000, 5)
	if _, _, err := lib.Lookup(genome.Random(10, rng.New(6))); err == nil {
		t.Fatal("short pattern accepted")
	}
	if _, _, err := lib.Lookup(nil); err == nil {
		t.Fatal("nil pattern accepted")
	}
}

func TestLookupStats(t *testing.T) {
	lib, ref := buildExactLib(t, 2000, 7)
	_, stats, err := lib.Lookup(ref.Slice(50, 82))
	if err != nil {
		t.Fatal(err)
	}
	if stats.BucketProbes != lib.Describe().Buckets {
		t.Fatalf("probes %d != buckets %d", stats.BucketProbes, lib.Describe().Buckets)
	}
	if stats.Alignments != 1 || stats.CandidateBuckets < 1 || stats.WindowsVerified < 1 {
		t.Fatalf("stats implausible: %+v", stats)
	}
}

func TestLookupApproxToleratesMutations(t *testing.T) {
	ref := genome.Random(1500, rng.New(10))
	lib := mustLibrary(t, Params{
		Dim: 8192, Window: 48, Approx: true,
		Capacity: 4, MutTolerance: 6, Seed: 11,
	})
	if err := lib.Add(genome.Record{ID: "ref", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	for _, muts := range []int{0, 2, 4, 6} {
		pat := ref.Slice(700, 748)
		mut, _ := genome.SubstituteExactly(pat, muts, rng.New(uint64(20+muts)))
		matches, _, err := lib.Lookup(mut)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range matches {
			if m.Off == 700 && m.Distance == muts {
				found = true
			}
		}
		if !found {
			t.Fatalf("muts=%d: occurrence missed, got %+v", muts, matches)
		}
	}
	// Beyond tolerance the verifier must reject even if the filter fires.
	pat := ref.Slice(700, 748)
	far, _ := genome.SubstituteExactly(pat, 20, rng.New(30))
	matches, _, err := lib.Lookup(far)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.Off == 700 {
			t.Fatalf("match beyond tolerance reported: %+v", m)
		}
	}
}

func TestLookupStrideWithCompensation(t *testing.T) {
	// Stride-4 library: a pattern of length Window+Stride−1 must be found
	// regardless of its offset alignment.
	ref := genome.Random(2000, rng.New(12))
	lib := mustLibrary(t, Params{Dim: 8192, Window: 32, Stride: 4, Seed: 13})
	if err := lib.Add(genome.Record{ID: "ref", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	for off := 100; off < 108; off++ { // all alignments mod 4 covered
		pat := ref.Slice(off, off+32+3)
		matches, _, err := lib.Lookup(pat)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range matches {
			if m.Ref == 0 && m.Off == off+m.QueryOff && m.Off%4 == 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("offset %d: no aligned match, got %+v", off, matches)
		}
	}
}

func TestLookupLongMapsRead(t *testing.T) {
	src := rng.New(14)
	refs := []*genome.Sequence{
		genome.Random(3000, src), genome.Random(3000, src), genome.Random(3000, src),
	}
	lib := mustLibrary(t, Params{Dim: 8192, Window: 32, Seed: 15})
	for i, r := range refs {
		if err := lib.Add(genome.Record{ID: string(rune('a' + i)), Seq: r}); err != nil {
			t.Fatal(err)
		}
	}
	lib.Freeze()
	// A 320-base read from reference 1 at offset 1234.
	read := refs[1].Slice(1234, 1234+320)
	ranked, _, err := SearchLong(lib, read, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 || ranked[0].Ref != 1 {
		t.Fatalf("read not mapped to ref 1: %+v", ranked)
	}
	if ranked[0].Offset != 1234 {
		t.Fatalf("alignment offset %d, want 1234", ranked[0].Offset)
	}
	if ranked[0].Fraction < 0.9 {
		t.Fatalf("support fraction %v too low for error-free read", ranked[0].Fraction)
	}
}

func TestClassify(t *testing.T) {
	src := rng.New(16)
	refs := []*genome.Sequence{genome.Random(2000, src), genome.Random(2000, src)}
	lib := mustLibrary(t, Params{Dim: 8192, Window: 32, Seed: 17})
	for i, r := range refs {
		if err := lib.Add(genome.Record{ID: string(rune('A' + i)), Seq: r}); err != nil {
			t.Fatal(err)
		}
	}
	lib.Freeze()
	best, _, err := lib.Classify(refs[0].Slice(500, 800), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if best.Ref != 0 {
		t.Fatalf("classified to ref %d", best.Ref)
	}
	// An unrelated query must not classify.
	if _, _, err := lib.Classify(genome.Random(300, rng.New(18)), 0.5); err == nil {
		t.Fatal("unrelated query classified")
	}
}

func TestLookupLongQueryTooShort(t *testing.T) {
	lib, _ := buildExactLib(t, 1000, 19)
	if _, _, err := SearchLong(lib, genome.Random(10, rng.New(20)), 0.5); err == nil {
		t.Fatal("short query accepted")
	}
}

func TestProbeDimensionMismatch(t *testing.T) {
	lib, _ := buildExactLib(t, 1000, 21)
	other := mustLibrary(t, Params{Dim: 1024, Window: 32, Seed: 22})
	q := other.Encoder().EncodeWindowExact(genome.Random(32, rng.New(23)), 0)
	if _, err := lib.Probe(q, nil); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestMultipleOccurrences(t *testing.T) {
	// Plant the same 32-mer at three locations.
	src := rng.New(24)
	motif := genome.Random(32, src)
	ref := genome.Random(500, src).
		Append(motif).Append(genome.Random(500, src)).
		Append(motif).Append(genome.Random(500, src)).
		Append(motif)
	lib := mustLibrary(t, Params{Dim: 8192, Window: 32, Seed: 25})
	if err := lib.Add(genome.Record{ID: "ref", Seq: ref}); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	matches, _, err := lib.Lookup(motif)
	if err != nil {
		t.Fatal(err)
	}
	wantOffsets := map[int]bool{500: true, 1032: true, 1564: true}
	got := map[int]bool{}
	for _, m := range matches {
		got[m.Off] = true
	}
	for off := range wantOffsets {
		if !got[off] {
			t.Fatalf("occurrence at %d missed; got %v", off, got)
		}
	}
}

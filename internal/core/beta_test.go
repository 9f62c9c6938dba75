package core

import (
	"context"
	"testing"

	"repro/internal/genome"
	"repro/internal/stats"
)

// TestExactMissRateWithinBeta holds exact HDC to its false-negative
// budget per occurrence on plain variant data: one Search of every
// window of variant 0 against the CLI's geometry (D = 8192, W = 32, the
// model's C) over genome.GenerateVariantDB's variants, each occurrence
// genome.FindAll finds in any variant and the search does not return
// counted as a miss. Misses must stay under the binomial upper limit of
// β = 1e-3 at a 1e-9 tail. The race detector gets a smaller database.
func TestExactMissRateWithinBeta(t *testing.T) {
	const w, beta, tail = 32, 1e-3, 1e-9
	cfg := genome.DefaultVariantDBConfig()
	cfg.NumVariants = 8
	if raceEnabled {
		cfg.NumVariants, cfg.AncestorLen = 4, 6000
	}
	db, err := genome.GenerateVariantDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := NewLibrary(Params{Dim: 8192, Window: w, Beta: beta, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range db.Variants {
		if err := lib.Add(v.Record); err != nil {
			t.Fatal(err)
		}
	}
	lib.Freeze()

	v0 := db.Variants[0].Seq
	pats := make([]*genome.Sequence, v0.Len()-w+1)
	for i := range pats {
		pats[i] = v0.Slice(i, i+w)
	}
	var a Answer
	if err := lib.Search(context.Background(), Query{Patterns: pats}, &a); err != nil {
		t.Fatal(err)
	}

	type hit struct{ ref, off int }
	occurrences, misses := 0, 0
	var offs []int
	for i, res := range a.Results {
		if res.Err != nil {
			t.Fatalf("window %d: %v", i, res.Err)
		}
		found := make(map[hit]bool, len(res.Matches))
		for _, m := range res.Matches {
			found[hit{m.Ref, m.Off}] = true
		}
		for ref, v := range db.Variants {
			offs, _ = genome.FindAll(offs[:0], v.Seq, v0, i, w)
			for _, off := range offs {
				occurrences++
				if !found[hit{ref, off}] {
					misses++
				}
			}
		}
	}
	// limit is the smallest count a Binomial(occurrences, β) reaches
	// with probability at most tail.
	limit := 0
	for stats.BinomialTail(occurrences, beta, limit) > tail {
		limit++
	}
	t.Logf("%d variants × %d bases, capacity %d, %d routing groups: %d of %d occurrences missed (%.2e), limit %d at β = %g",
		len(db.Variants), cfg.AncestorLen, lib.Params().Capacity, lib.groups, misses, occurrences,
		float64(misses)/float64(occurrences), limit, beta)
	if misses >= limit {
		t.Fatalf("exact HDC missed %d of %d occurrences, at or past the β = %g limit %d", misses, occurrences, beta, limit)
	}
}

// Covidsearch: the paper's motivating case study. Generate a COVID-like
// variant database (shared 29.9 kb ancestor, phylogenetic point
// mutations), sample noisy sequencing reads, and classify each read to
// its source variant with BioHD — comparing against a classical
// seed-and-extend (BLAST-style) index.
//
//	go run ./examples/covidsearch
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/genome"
)

func main() {
	// 1. Variant database: 24 variants of a 29,903-base ancestor.
	cfg := genome.DefaultVariantDBConfig()
	cfg.NumVariants = 24
	cfg.AncestorLen = 29903
	cfg.Seed = 3
	db, err := genome.GenerateVariantDB(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("variant DB: %d variants of a %d-base ancestor\n",
		len(db.Variants), db.Ancestor.Len())

	// 2. Sequencing reads: 300-base fragments with 0.5% error.
	var seqs []*genome.Sequence
	for _, v := range db.Variants {
		seqs = append(seqs, v.Seq)
	}
	reads, err := genome.SampleReads(seqs, genome.ReadSamplerConfig{
		ReadLen: 300, NumReads: 50, ErrorRate: 0.005, Seed: 4,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. BioHD library over all variants.
	lib, err := core.NewLibrary(core.Params{
		Dim: 8192, Window: 32, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	for _, v := range db.Variants {
		if err := lib.Add(v.Record); err != nil {
			log.Fatal(err)
		}
	}
	lib.Freeze()
	info := lib.Describe()
	fmt.Printf("BioHD library: %d windows → %d buckets in %v\n",
		info.Windows, info.Buckets, time.Since(start).Round(time.Millisecond))

	// 4. Classical comparator: seed-and-extend index (k=15 seeds).
	seedIdx, err := baseline.NewSeedIndex(15)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range seqs {
		if err := seedIdx.Add(s); err != nil {
			log.Fatal(err)
		}
	}

	// 5. Classify every read with both engines. Variants share ancestry,
	//    so credit any reference that contains the read's error-free
	//    origin exactly.
	ok := func(got int, r genome.Read) bool {
		if got == r.SourceIdx {
			return true
		}
		origin := seqs[r.SourceIdx].Slice(r.Offset, r.Offset+r.Seq.Len())
		return seqs[got].Index(origin, 0) >= 0
	}
	bioCorrect, seedCorrect := 0, 0
	bioStart := time.Now()
	for _, r := range reads {
		if best, _, err := lib.Classify(r.Seq, 0.4); err == nil && ok(best.Ref, r) {
			bioCorrect++
		}
	}
	bioTime := time.Since(bioStart)
	seedStart := time.Now()
	for _, r := range reads {
		if hit, _, found := seedIdx.Classify(r.Seq, 2, 0.9); found && ok(hit.Ref, r) {
			seedCorrect++
		}
	}
	seedTime := time.Since(seedStart)

	fmt.Printf("\n%-14s %-10s %s\n", "engine", "accuracy", "time (50 reads)")
	fmt.Printf("%-14s %d/%-8d %v\n", "biohd", bioCorrect, len(reads), bioTime.Round(time.Millisecond))
	fmt.Printf("%-14s %d/%-8d %v\n", "seed-extend", seedCorrect, len(reads), seedTime.Round(time.Millisecond))
	fmt.Println("\n(the PIM projection of this workload is experiment F10: biohd experiment F10)")
}

// Readmapping: map mutated short reads against a multi-chromosome
// reference with BioHD approximate search, validating every mapping
// against Smith–Waterman ground truth.
//
//	go run ./examples/readmapping
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

func main() {
	// 1. Three synthetic chromosomes.
	src := rng.New(11)
	var refs []*genome.Sequence
	lib, err := core.NewLibrary(core.Params{
		Dim: 8192, Window: 48,
		Approx: true, Capacity: 2, MutTolerance: 5, Seed: 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		chr := genome.Random(20_000, src)
		refs = append(refs, chr)
		if err := lib.Add(genome.Record{ID: fmt.Sprintf("chr%d", i+1), Seq: chr}); err != nil {
			log.Fatal(err)
		}
	}
	lib.Freeze()
	info := lib.Describe()
	fmt.Printf("library: 3 chromosomes, %d windows, %d buckets\n",
		info.Windows, info.Buckets)

	// 2. 30 reads of 240 bases, each carrying substitution mutations
	//    (~2% divergence, like a diverged strain).
	type truth struct {
		chr, off int
	}
	var reads []*genome.Sequence
	var truths []truth
	for i := 0; i < 30; i++ {
		chr := src.Intn(3)
		off := src.Intn(20_000 - 240)
		read, _ := genome.SubstituteExactly(refs[chr].Slice(off, off+240), 5, src)
		reads = append(reads, read)
		truths = append(truths, truth{chr, off})
	}

	// 3. Map each read; validate against a local alignment of the read
	//    at the reported locus.
	correct, validated := 0, 0
	var a core.Answer
	for i, read := range reads {
		q := core.Query{Patterns: []*genome.Sequence{read}, Long: true, MinFrac: 0.4}
		if err := lib.Search(context.Background(), q, &a); err != nil || len(a.Ranked) == 0 {
			continue
		}
		best := a.Ranked[0]
		if best.Ref == truths[i].chr && best.Offset == truths[i].off {
			correct++
		}
		// Ground-truth check: Smith–Waterman score of the read against
		// the reported window must be near the maximum (2 × length for
		// match score 2).
		lo, hi := best.Offset, best.Offset+240
		if lo >= 0 && hi <= refs[best.Ref].Len() {
			res := baseline.SmithWaterman(read, refs[best.Ref].Slice(lo, hi), 2, -3, -4)
			if res.Score >= 2*240-10*5 { // allow the 5 substitutions
				validated++
			}
		}
	}
	fmt.Printf("mapped %d/30 reads to their exact origin\n", correct)
	fmt.Printf("Smith–Waterman validated %d/30 reported loci\n", validated)

	// 4. Show one alignment-quality trade-off: the model's predicted
	//    false-negative rate for this tolerance at the operating point.
	if cal, ok := lib.Calibration(); ok {
		fmt.Printf("operating threshold %.0f (noise %.0f±%.0f, signal@tol %.0f±%.0f)\n",
			cal.Tau, cal.NoiseMean, cal.NoiseStd, cal.SignalMean, cal.SignalStd)
	}
}

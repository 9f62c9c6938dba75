// Quickstart: build a BioHD reference library over a synthetic genome,
// then run an exact window search and an approximate (mutation-tolerant)
// search against it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

func main() {
	// 1. A 50 kb synthetic reference genome.
	ref := genome.Random(50_000, rng.New(1))
	fmt.Printf("reference: %d bases, GC %.1f%%\n", ref.Len(), 100*ref.GCContent())

	// 2. Exact-mode library: binding-chain encodings, capacity derived
	//    from the statistical quality model.
	exact, err := core.NewLibrary(core.Params{
		Dim:    8192, // hypervector dimension
		Window: 32,   // pattern length
		Seed:   7,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := exact.Add(genome.Record{ID: "chr1", Seq: ref}); err != nil {
		log.Fatal(err)
	}
	exact.Freeze()
	info := exact.Describe()
	fmt.Printf("exact library: %d windows in %d buckets (capacity %d)\n",
		info.Windows, info.Buckets, exact.Params().Capacity)

	// 3. Search a pattern that occurs at offset 12345.
	pattern := ref.Slice(12345, 12345+32)
	matches, stats, err := exact.Lookup(pattern)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact search: %d match(es) with %d bucket probes\n",
		len(matches), stats.BucketProbes)
	for _, m := range matches {
		fmt.Printf("  found at %s:%d\n", exact.Ref(m.Ref).ID, m.Off)
	}

	// 4. Approximate-mode library: positional bundles tolerate
	//    substitutions up to the configured budget.
	approx, err := core.NewLibrary(core.Params{
		Dim: 8192, Window: 48,
		Approx: true, Capacity: 2, MutTolerance: 5, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := approx.Add(genome.Record{ID: "chr1", Seq: ref}); err != nil {
		log.Fatal(err)
	}
	approx.Freeze()
	if cal, ok := approx.Calibration(); ok {
		fmt.Printf("approx library calibrated: noise %.0f±%.0f, signal %.0f±%.0f, τ %.0f\n",
			cal.NoiseMean, cal.NoiseStd, cal.SignalMean, cal.SignalStd, cal.Tau)
	}

	// 5. Mutate a 48-base pattern with 4 substitutions and still find it.
	mutated, edits := genome.SubstituteExactly(ref.Slice(30_000, 30_048), 4, rng.New(9))
	matches, _, err = approx.Lookup(mutated)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("approximate search with %d substitutions: %d match(es)\n",
		len(edits), len(matches))
	for _, m := range matches {
		fmt.Printf("  found at %s:%d (distance %d)\n",
			approx.Ref(m.Ref).ID, m.Off, m.Distance)
	}
}

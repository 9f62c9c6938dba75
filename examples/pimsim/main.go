// Pimsim: drive the crossbar PIM simulator directly. Builds a reference
// library, maps it onto chips of different geometries, verifies that
// in-memory search returns exactly the software engine's candidates, and
// prints the per-operation cost ledger.
//
//	go run ./examples/pimsim
package main

import (
	"fmt"
	"log"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/pim"
	"repro/internal/rng"
)

func main() {
	// 1. A 64-variant COVID-scale database in an exact-mode library.
	cfg := genome.DefaultVariantDBConfig()
	cfg.NumVariants, cfg.AncestorLen, cfg.Seed = 16, 10_000, 21
	db, err := genome.GenerateVariantDB(cfg)
	if err != nil {
		log.Fatal(err)
	}
	lib, err := core.NewLibrary(core.Params{Dim: 8192, Window: 32, Seed: 22})
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range db.Variants {
		if err := lib.Add(v.Record); err != nil {
			log.Fatal(err)
		}
	}
	lib.Freeze()
	fmt.Printf("library: %d buckets of %d-bit hypervectors\n",
		lib.Describe().Buckets, lib.Params().Dim)

	// 2. Map onto the reference chip and verify PIM results bit-exactly
	//    against the software engine.
	chip := pim.DefaultChipConfig()
	eng, err := pim.NewEngine(chip, lib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chip: %d arrays of %dx%d; library uses %d arrays, %d rows/bucket\n",
		chip.NumArrays, chip.ArrayRows, chip.ArrayCols, eng.ArraysUsed(), eng.RowsPerBucket())
	fmt.Printf("programming cost: %.3f ms, %.1f µJ\n\n",
		eng.BuildCost().LatencyMs(), eng.BuildCost().EnergyUj())

	src := rng.New(23)
	agree := 0
	var total pim.Cost
	const queries = 32
	for i := 0; i < queries; i++ {
		v := db.Variants[src.Intn(len(db.Variants))].Seq
		off := src.Intn(v.Len() - 32)
		hv := lib.Encoder().EncodeWindowExact(v, off)
		want, err := lib.Probe(hv, nil)
		if err != nil {
			log.Fatal(err)
		}
		got, cost, err := eng.Search(hv)
		if err != nil {
			log.Fatal(err)
		}
		total.Add(cost)
		if len(got) == len(want) {
			same := true
			for j := range got {
				if got[j] != want[j] {
					same = false
				}
			}
			if same {
				agree++
			}
		}
	}
	fmt.Printf("PIM vs software agreement: %d/%d query candidate sets identical\n\n", agree, queries)

	// 3. Per-op ledger for the batch.
	fmt.Printf("%-10s %12s\n", "op", "count/query")
	for _, k := range []pim.OpKind{
		pim.OpBroadcast, pim.OpXnor, pim.OpPopcount, pim.OpCompare,
	} {
		fmt.Printf("%-10s %12d\n", k, total.Counts[k]/queries)
	}
	sys := accel.DefaultBioHDSystem().Wrap(total.LatencyNs, total.EnergyPj, eng.ArraysUsed())
	fmt.Printf("\nper query: %.2f µs, %.2f µJ (system)\n",
		sys.LatencyNs/queries/1000, sys.EnergyPj/queries*1e-6)

	// 4. Geometry sweep: wider arrays cut rows per bucket.
	fmt.Printf("\n%-12s %14s %12s\n", "array", "arrays-used", "µs/query")
	for _, g := range []struct{ r, c int }{{512, 512}, {1024, 1024}, {1024, 2048}} {
		c2 := chip
		c2.ArrayRows, c2.ArrayCols, c2.NumArrays = g.r, g.c, 1<<18
		e2, err := pim.NewEngine(c2, lib)
		if err != nil {
			log.Fatal(err)
		}
		hv := lib.Encoder().EncodeWindowExact(db.Variants[0].Seq, 100)
		_, cost, err := e2.Search(hv)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %14d %12.2f\n",
			fmt.Sprintf("%dx%d", g.r, g.c), e2.ArraysUsed(), cost.LatencyNs/1000)
	}
}

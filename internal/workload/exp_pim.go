package workload

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/pim"
	"repro/internal/rng"
)

func init() {
	register(Experiment{ID: "F6", Title: "PIM speedup & energy vs GPU and SOTA-PIM", Run: runF6})
	register(Experiment{ID: "F7", Title: "Kernel breakdown vs SOTA-PIM", Run: runF7})
	register(Experiment{ID: "F8", Title: "PIM architecture sensitivity", Run: runF8})
	register(Experiment{ID: "T3", Title: "Per-operation PIM cost table", Run: runT3})
	register(Experiment{ID: "F10", Title: "COVID-19 case study", Run: runF10})
}

// pimSetup builds a frozen exact library over ds and maps it on a chip.
func pimSetup(cfg Config, ds Dataset, chip pim.ChipConfig) (*core.Library, *pim.Engine, error) {
	lib, err := buildLibrary(core.Params{
		Dim: 8192, Window: 32, Seed: cfg.Seed + 41,
	}, ds)
	if err != nil {
		return nil, nil, err
	}
	eng, err := pim.NewEngine(chip, lib)
	if err != nil {
		return nil, nil, err
	}
	return lib, eng, nil
}

// batchCost simulates a batch of window queries through encode + search
// on the PIM engine and returns the total cost.
func batchCost(lib *core.Library, eng *pim.Engine, ds Dataset, queries int, seed uint64) (pim.Cost, error) {
	src := rng.New(seed)
	w := lib.Params().Window
	var total pim.Cost
	for i := 0; i < queries; i++ {
		wr := sampleWindows(ds, w, 1, src)[0]
		q := ds.Recs[wr.Ref].Seq.Slice(int(wr.Off), int(wr.Off)+w)
		hv := lib.Encoder().Encode(q, 0, modeOf(lib))
		total.Add(eng.EncodeCost(lib.Params().Approx, w))
		_, c, err := eng.Search(hv)
		if err != nil {
			return total, err
		}
		total.Add(c)
	}
	return total, nil
}

// runF6 reproduces the headline comparison: BioHD-PIM vs the GPU model
// and the SOTA-PIM model on the same workload ("102.8× and 116.1×
// speedup and energy efficiency vs GPU; 9.3× and 13.2× vs SOTA PIM").
func runF6(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	covid, err := covidDataset(cfg)
	if err != nil {
		return nil, err
	}
	queries := cfg.scaled(64, 8)
	lib, eng, err := pimSetup(cfg, covid, pim.DefaultChipConfig())
	if err != nil {
		return nil, err
	}
	bioCost, err := batchCost(lib, eng, covid, queries, cfg.Seed+42)
	if err != nil {
		return nil, err
	}
	bio := accel.DefaultBioHDSystem().Wrap(bioCost.LatencyNs, bioCost.EnergyPj, eng.ArraysUsed())
	wl := accel.Workload{
		DBBases: covid.TotalBases(), Queries: queries,
		PatternLen: lib.Params().Window, Approx: true,
	}
	gpu, err := accel.RTX3060Ti().Evaluate(wl)
	if err != nil {
		return nil, err
	}
	sota, err := accel.SOTAPIM().Evaluate(wl)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "F6",
		Title: "End-to-end search: BioHD-PIM vs comparator models",
		Columns: []string{"engine", "µs/query", "queries/s", "µJ/query",
			"speedup-vs", "energy-eff-vs"},
		Notes: []string{
			fmt.Sprintf("workload: %d queries against %d bases (%d refs)",
				queries, covid.TotalBases(), len(covid.Recs)),
			"paper's operating point: 102.8×/116.1× vs GPU, 9.3×/13.2× vs SOTA-PIM",
		},
	}
	perQ := func(e accel.Estimate) (float64, float64, float64) {
		q := float64(queries)
		return e.LatencyNs / q / 1000, e.ThroughputQPS(queries), e.EnergyPj / q * 1e-6
	}
	bl, bq, be := perQ(bio)
	t.AddRow("biohd-pim", bl, bq, be, "1.0", "1.0")
	gl, gq, ge := perQ(gpu)
	t.AddRow("gpu(rtx3060ti-model)", gl, gq, ge,
		fmt.Sprintf("%.1fx", gl/bl), fmt.Sprintf("%.1fx", ge/be))
	sl, sq, se := perQ(sota)
	t.AddRow("sota-pim(model)", sl, sq, se,
		fmt.Sprintf("%.1fx", sl/bl), fmt.Sprintf("%.1fx", se/be))
	return &Result{Tables: []*Table{t}}, nil
}

// runF7 breaks the BioHD-PIM cost into its kernels (encode, search,
// build) across datasets, against the SOTA-PIM comparator.
func runF7(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	covid, err := covidDataset(cfg)
	if err != nil {
		return nil, err
	}
	sets := []Dataset{covid, bacterialDataset(cfg), skewedDataset(cfg)}
	queries := cfg.scaled(32, 8)
	t := &Table{
		ID:    "F7",
		Title: "Kernel breakdown per query and ratio vs SOTA-PIM",
		Columns: []string{"dataset", "encode-µs", "search-µs", "build-ms(once)",
			"sota-pim-µs", "speedup"},
	}
	for _, ds := range sets {
		lib, eng, err := pimSetup(cfg, ds, pim.DefaultChipConfig())
		if err != nil {
			return nil, err
		}
		enc := eng.EncodeCost(false, lib.Params().Window)
		src := rng.New(cfg.Seed + 43)
		var search pim.Cost
		for i := 0; i < queries; i++ {
			wr := sampleWindows(ds, lib.Params().Window, 1, src)[0]
			q := ds.Recs[wr.Ref].Seq.Slice(int(wr.Off), int(wr.Off)+lib.Params().Window)
			hv := lib.Encoder().Encode(q, 0, modeOf(lib))
			_, c, err := eng.Search(hv)
			if err != nil {
				return nil, err
			}
			search.Add(c)
		}
		searchPerQ := search.LatencyNs / float64(queries)
		sota, err := accel.SOTAPIM().Evaluate(accel.Workload{
			DBBases: ds.TotalBases(), Queries: 1,
			PatternLen: lib.Params().Window, Approx: true,
		})
		if err != nil {
			return nil, err
		}
		bioPerQ := enc.LatencyNs + searchPerQ
		t.AddRow(ds.Name, enc.LatencyNs/1000, searchPerQ/1000,
			eng.BuildCost().LatencyMs(), sota.LatencyNs/1000,
			fmt.Sprintf("%.1fx", sota.LatencyNs/bioPerQ))
	}
	return &Result{Tables: []*Table{t}}, nil
}

// runF8 sweeps the chip geometry: array size and count trade per-query
// latency against energy ("massive parallelism ... compatible with
// existing crossbar memory").
func runF8(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	covid, err := covidDataset(cfg)
	if err != nil {
		return nil, err
	}
	queries := cfg.scaled(16, 4)
	t := &Table{
		ID:    "F8",
		Title: "Chip geometry sensitivity",
		Columns: []string{"array", "arrays-used", "buckets/array", "µs/query",
			"µJ/query(dynamic)"},
	}
	for _, geom := range []struct{ rows, cols int }{
		{256, 256}, {512, 512}, {1024, 1024}, {2048, 1024}, {1024, 2048},
	} {
		chip := pim.DefaultChipConfig()
		chip.ArrayRows, chip.ArrayCols = geom.rows, geom.cols
		chip.NumArrays = 1 << 18 // capacity never the constraint in the sweep
		lib, eng, err := pimSetup(cfg, covid, chip)
		if err != nil {
			return nil, err
		}
		cost, err := batchCost(lib, eng, covid, queries, cfg.Seed+44)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dx%d", geom.rows, geom.cols), eng.ArraysUsed(),
			chip.ArrayRows/eng.RowsPerBucket(),
			cost.LatencyNs/float64(queries)/1000,
			cost.EnergyPj/float64(queries)*1e-6)
	}
	return &Result{Tables: []*Table{t}}, nil
}

// runT3 prints the per-operation device cost table and the op counts one
// reference search incurs ("supports all essential BioHD operations
// natively in memory").
func runT3(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	covid, err := covidDataset(cfg)
	if err != nil {
		return nil, err
	}
	lib, eng, err := pimSetup(cfg, covid, pim.DefaultChipConfig())
	if err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed + 45)
	wr := sampleWindows(covid, lib.Params().Window, 1, src)[0]
	q := covid.Recs[wr.Ref].Seq.Slice(int(wr.Off), int(wr.Off)+lib.Params().Window)
	hv := lib.Encoder().Encode(q, 0, modeOf(lib))
	_, cost, err := eng.Search(hv)
	if err != nil {
		return nil, err
	}
	dev := pim.DefaultDeviceParams()
	t := &Table{
		ID:      "T3",
		Title:   "PIM operation costs and per-search counts",
		Columns: []string{"operation", "ns/op", "pJ/op", "count/search"},
	}
	type row struct {
		kind pim.OpKind
		ns   float64
		pj   float64
	}
	for _, r := range []row{
		{pim.OpRowRead, dev.RowReadNs, dev.RowReadPj},
		{pim.OpRowWrite, dev.RowWriteNs, dev.RowWritePj},
		{pim.OpXnor, dev.XnorNs, dev.XnorPj},
		{pim.OpPopcount, dev.PopcountNs, dev.PopcountPj},
		{pim.OpShift, dev.ShiftNs, dev.ShiftPj},
		{pim.OpBroadcast, dev.BroadcastNs, dev.BroadcastPj},
		{pim.OpCompare, dev.CompareNs, dev.ComparePj},
	} {
		t.AddRow(r.kind.String(), r.ns, r.pj, cost.Counts[r.kind])
	}
	return &Result{Tables: []*Table{t}}, nil
}

// runF10 is the end-to-end COVID-19 case study: classify mutated reads
// against the variant database with BioHD and with the seed-and-extend
// comparator, reporting accuracy and modelled speedup.
func runF10(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	vcfg := genome.DefaultVariantDBConfig()
	vcfg.NumVariants = cfg.scaled(32, 4)
	vcfg.AncestorLen = cfg.scaled(29903, 1500)
	vcfg.Seed = cfg.Seed + 46
	db, err := genome.GenerateVariantDB(vcfg)
	if err != nil {
		return nil, err
	}
	ds := Dataset{Name: "covid-like"}
	var seqs []*genome.Sequence
	for _, v := range db.Variants {
		ds.Recs = append(ds.Recs, v.Record)
		seqs = append(seqs, v.Seq)
	}
	reads, err := genome.SampleReads(seqs, genome.ReadSamplerConfig{
		ReadLen: 320, NumReads: cfg.scaled(100, 20), ErrorRate: 0.005,
		Seed: cfg.Seed + 47,
	})
	if err != nil {
		return nil, err
	}
	lib, eng, err := pimSetup(cfg, ds, pim.DefaultChipConfig())
	if err != nil {
		return nil, err
	}
	seedIdx, err := baseline.NewSeedIndex(15)
	if err != nil {
		return nil, err
	}
	for _, s := range seqs {
		if err := seedIdx.Add(s); err != nil {
			return nil, err
		}
	}

	bioCorrect, seedCorrect := 0, 0
	var searchCost pim.Cost
	for _, r := range reads {
		// Variants share ancestry, so several references may legitimately
		// contain the read; score correctness as "best hit is the true
		// source or matches it exactly at the implied offset".
		if best, _, err := lib.Classify(r.Seq, 0.5); err == nil {
			if classificationOK(best.Ref, r, seqs) {
				bioCorrect++
			}
		}
		if hit, _, ok := seedIdx.Classify(r.Seq, 2, 0.9); ok {
			if classificationOK(hit.Ref, r, seqs) {
				seedCorrect++
			}
		}
		// PIM cost of the read's window lookups.
		w := lib.Params().Window
		for qOff := 0; qOff+w <= r.Seq.Len(); qOff += w {
			hv := lib.Encoder().Encode(r.Seq, qOff, modeOf(lib))
			_, c, err := eng.Search(hv)
			if err != nil {
				return nil, err
			}
			searchCost.Add(c)
		}
	}
	bio := accel.DefaultBioHDSystem().Wrap(searchCost.LatencyNs, searchCost.EnergyPj, eng.ArraysUsed())
	gpu, err := accel.RTX3060Ti().Evaluate(accel.Workload{
		DBBases: ds.TotalBases(), Queries: len(reads) * (320 / lib.Params().Window),
		PatternLen: lib.Params().Window, Approx: true,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "F10",
		Title:   "COVID-like variant classification case study",
		Columns: []string{"metric", "biohd", "seed-extend", "gpu-model"},
		Notes: []string{
			fmt.Sprintf("%d reads (len 320, 0.5%% error) against %d variants of %d bases",
				len(reads), len(ds.Recs), vcfg.AncestorLen),
		},
	}
	t.AddRow("classification-accuracy",
		float64(bioCorrect)/float64(len(reads)),
		float64(seedCorrect)/float64(len(reads)), "n/a")
	t.AddRow("latency-µs/read",
		bio.LatencyNs/float64(len(reads))/1000, "host-cpu",
		gpu.LatencyNs/float64(len(reads))/1000)
	t.AddRow("energy-µJ/read",
		bio.EnergyPj/float64(len(reads))*1e-6, "host-cpu",
		gpu.EnergyPj/float64(len(reads))*1e-6)
	t.AddRow("speedup-vs-gpu", fmt.Sprintf("%.1fx", gpu.LatencyNs/bio.LatencyNs), "", "1.0")
	return &Result{Tables: []*Table{t}}, nil
}

// classificationOK accepts the true source or any reference containing
// the read's error-free origin exactly (shared-ancestry duplicates).
func classificationOK(got int, r genome.Read, seqs []*genome.Sequence) bool {
	if got == r.SourceIdx {
		return true
	}
	origin := seqs[r.SourceIdx].Slice(r.Offset, r.Offset+r.Seq.Len())
	return seqs[got].Index(origin, 0) >= 0
}

package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

// Dataset is a named reference collection used across experiments,
// mirroring the paper's evaluation inputs (COVID-19 variant databases,
// bacterial-scale references, random genomes) with synthetic equivalents
// (DESIGN.md §4).
type Dataset struct {
	Name string
	Recs []genome.Record
}

// TotalBases returns the summed sequence length.
func (d Dataset) TotalBases() int64 {
	var n int64
	for _, r := range d.Recs {
		n += int64(r.Seq.Len())
	}
	return n
}

// GCContent returns the base-weighted GC fraction.
func (d Dataset) GCContent() float64 {
	var gc, n float64
	for _, r := range d.Recs {
		c := r.Seq.BaseCounts()
		gc += float64(c[genome.G] + c[genome.C])
		n += float64(r.Seq.Len())
	}
	if n == 0 {
		return 0
	}
	return gc / n
}

// covidDataset builds the COVID-like variant database at the given scale
// (reference: 64 variants of a 29,903-base ancestor).
func covidDataset(cfg Config) (Dataset, error) {
	vcfg := genome.DefaultVariantDBConfig()
	vcfg.NumVariants = cfg.scaled(64, 4)
	vcfg.AncestorLen = cfg.scaled(29903, 1000)
	vcfg.Seed = cfg.Seed
	db, err := genome.GenerateVariantDB(vcfg)
	if err != nil {
		return Dataset{}, err
	}
	ds := Dataset{Name: "covid-like"}
	for _, v := range db.Variants {
		ds.Recs = append(ds.Recs, v.Record)
	}
	return ds, nil
}

// bacterialDataset builds a single long random reference (reference
// scale: one 1 Mb chromosome at 50% GC).
func bacterialDataset(cfg Config) Dataset {
	n := cfg.scaled(1_000_000, 20_000)
	seq := genome.Random(n, rng.New(cfg.Seed+1))
	return Dataset{
		Name: "bacterial-like",
		Recs: []genome.Record{{ID: "chr1", Description: "synthetic chromosome", Seq: seq}},
	}
}

// skewedDataset builds GC-skewed references (reference scale: 16 × 50 kb
// at 65% GC), exercising encoder robustness to composition bias.
func skewedDataset(cfg Config) Dataset {
	src := rng.New(cfg.Seed + 2)
	ds := Dataset{Name: "gc-skewed"}
	n := cfg.scaled(16, 2)
	length := cfg.scaled(50_000, 5_000)
	for i := 0; i < n; i++ {
		ds.Recs = append(ds.Recs, genome.Record{
			ID:  fmt.Sprintf("gc-%02d", i),
			Seq: genome.RandomGC(length, 0.65, src),
		})
	}
	return ds
}

// buildLibrary constructs and freezes a library over a dataset.
func buildLibrary(params core.Params, ds Dataset) (*core.Library, error) {
	lib, err := core.NewLibrary(params)
	if err != nil {
		return nil, err
	}
	for _, rec := range ds.Recs {
		if err := lib.Add(rec); err != nil {
			return nil, err
		}
	}
	lib.Freeze()
	if !lib.Describe().Frozen {
		return nil, fmt.Errorf("workload: dataset %q produced an empty library", ds.Name)
	}
	return lib, nil
}

// sampleWindows draws n (refIdx, offset) window positions uniformly from
// the dataset.
func sampleWindows(ds Dataset, window, n int, src *rng.Source) []core.WindowRef {
	var eligible []int
	for i, r := range ds.Recs {
		if r.Seq.Len() >= window {
			eligible = append(eligible, i)
		}
	}
	out := make([]core.WindowRef, 0, n)
	for i := 0; i < n && len(eligible) > 0; i++ {
		ri := eligible[src.Intn(len(eligible))]
		off := src.Intn(ds.Recs[ri].Seq.Len() - window + 1)
		out = append(out, core.WindowRef{Ref: int32(ri), Off: int32(off)})
	}
	return out
}

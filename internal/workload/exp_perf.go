package workload

import (
	"time"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/pim"
	"repro/internal/rng"
)

// bigChip returns a chip large enough for any sweep point, so geometry
// is never the constraint in scaling experiments.
func bigChip() pim.ChipConfig {
	chip := pim.DefaultChipConfig()
	chip.NumArrays = 1 << 18
	return chip
}

func init() {
	register(Experiment{ID: "T2", Title: "Operation-count comparison", Run: runT2})
	register(Experiment{ID: "F5", Title: "Software throughput vs baselines", Run: runF5})
	register(Experiment{ID: "F9", Title: "Scalability with database size", Run: runF9})
}

// runT2 compares the algorithmic work one window query costs: BioHD's
// parallelizable similarity checks against the classical algorithms'
// sequential scans ("simplifies the required sequence matching
// operations").
func runT2(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	const window = 32
	refLen := cfg.scaled(200_000, 10_000)
	trials := cfg.scaled(50, 10)
	ref := genome.Random(refLen, rng.New(cfg.Seed+11))
	lib, err := buildLibrary(core.Params{
		Dim: 8192, Window: window, Seed: cfg.Seed + 12,
	}, Dataset{Name: "rand", Recs: []genome.Record{{ID: "r", Seq: ref}}})
	if err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed + 13)
	var bio core.Stats
	counts := map[string]int{}
	for i := 0; i < trials; i++ {
		off := src.Intn(ref.Len() - window + 1)
		q := ref.Slice(off, off+window)
		_, st, err := lib.Lookup(q)
		if err != nil {
			return nil, err
		}
		bioAdd(&bio, st)
		for _, m := range []baseline.ExactMatcher{
			baseline.Naive{}, baseline.KMP{}, baseline.BMH{}, baseline.ShiftOr{},
		} {
			_, ops := m.Find(ref, q)
			counts[m.Name()] += ops
		}
		_, my := baseline.Myers{}.Find(ref, q, 2)
		counts["myers(k=2)"] += my
		_, dp := baseline.SellersDP{}.Find(ref, q, 2)
		counts["sellers-dp(k=2)"] += dp
	}
	t := &Table{
		ID:      "T2",
		Title:   "Elementary operations per window query",
		Columns: []string{"algorithm", "ops/query", "parallelizable-unit"},
		Notes: []string{
			"BioHD bucket probes are independent D-bit dot products (row-parallel in PIM)",
			"classical scans are sequential in text order",
		},
	}
	t.AddRow("biohd(bucket-probes)", float64(bio.BucketProbes)/float64(trials), "D-bit dot product")
	t.AddRow("biohd(verify-bases)", float64(bio.BaseComparisons)/float64(trials), "base compare")
	for _, name := range []string{"naive", "kmp", "bmh", "shift-or", "myers(k=2)", "sellers-dp(k=2)"} {
		t.AddRow(name, float64(counts[name])/float64(trials), "char/word step")
	}
	return &Result{Tables: []*Table{t}}, nil
}

// bioAdd is a tiny named wrapper so core.Stats aggregation stays local.
// (core.Stats has an unexported add; replicate the sum here.)
func bioAdd(dst *core.Stats, s core.Stats) {
	dst.Alignments += s.Alignments
	dst.BucketProbes += s.BucketProbes
	dst.CandidateBuckets += s.CandidateBuckets
	dst.WindowsVerified += s.WindowsVerified
	dst.BaseComparisons += s.BaseComparisons
}

// runF5 measures real single-thread Go throughput of BioHD search
// against the software baselines, over the same reference.
func runF5(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	const window = 32
	refLen := cfg.scaled(150_000, 10_000)
	queries := cfg.scaled(200, 30)
	ref := genome.Random(refLen, rng.New(cfg.Seed+21))
	lib, err := buildLibrary(core.Params{
		Dim: 8192, Window: window, Seed: cfg.Seed + 22,
	}, Dataset{Name: "rand", Recs: []genome.Record{{ID: "r", Seq: ref}}})
	if err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed + 23)
	qs := make([]*genome.Sequence, queries)
	for i := range qs {
		if i%2 == 0 {
			off := src.Intn(ref.Len() - window + 1)
			qs[i] = ref.Slice(off, off+window)
		} else {
			qs[i] = genome.Random(window, src)
		}
	}
	t := &Table{
		ID:      "F5",
		Title:   "Measured software throughput (single goroutine)",
		Columns: []string{"engine", "queries/s", "µs/query"},
		Notes:   []string{"wall-clock on this host; PIM projections are experiment F6"},
	}
	timeIt := func(name string, f func(q *genome.Sequence)) {
		start := time.Now()
		for _, q := range qs {
			f(q)
		}
		el := time.Since(start)
		perQ := el.Seconds() / float64(len(qs))
		t.AddRow(name, 1/perQ, perQ*1e6)
	}
	timeIt("biohd", func(q *genome.Sequence) { _, _, _ = lib.Lookup(q) })
	timeIt("shift-or", func(q *genome.Sequence) { baseline.ShiftOr{}.Find(ref, q) })
	timeIt("bmh", func(q *genome.Sequence) { baseline.BMH{}.Find(ref, q) })
	timeIt("kmp", func(q *genome.Sequence) { baseline.KMP{}.Find(ref, q) })
	timeIt("myers(k=2)", func(q *genome.Sequence) { baseline.Myers{}.Find(ref, q, 2) })
	timeIt("sellers-dp(k=2)", func(q *genome.Sequence) { baseline.SellersDP{}.Find(ref, q, 2) })
	return &Result{Tables: []*Table{t}}, nil
}

// runF9 sweeps the database size: BioHD probe work grows with buckets
// (windows/capacity) while classical scans grow with total bases; the
// HDC advantage widens as superposition amortizes more windows per probe.
func runF9(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	const window = 32
	trials := cfg.scaled(40, 10)
	t := &Table{
		ID:    "F9",
		Title: "Scaling with database size",
		Columns: []string{"db-bases", "buckets", "probe-ops/query", "scan-ops/query",
			"pim-µs/query", "gpu-µs/query", "recall"},
		Notes: []string{
			"probe op = one D-bit bucket dot; scan op = one Shift-Or word step",
			"pim latency stays near-flat (arrays scale out); GPU latency grows with the database",
		},
	}
	for _, nRefs := range []int{2, 8, 32, 128} {
		refLen := cfg.scaled(20_000, 2_000)
		src := rng.New(cfg.Seed + uint64(nRefs))
		ds := Dataset{Name: "sweep"}
		for i := 0; i < nRefs; i++ {
			ds.Recs = append(ds.Recs, genome.Record{ID: "r", Seq: genome.Random(refLen, src)})
		}
		lib, err := buildLibrary(core.Params{
			Dim: 8192, Window: window, Seed: cfg.Seed + uint64(nRefs) + 31,
		}, ds)
		if err != nil {
			return nil, err
		}
		eng, err := pim.NewEngine(bigChip(), lib)
		if err != nil {
			return nil, err
		}
		var pimCost pim.Cost
		found, probeOps, scanOps := 0, 0, 0
		for i := 0; i < trials; i++ {
			ri := src.Intn(nRefs)
			ref := ds.Recs[ri].Seq
			off := src.Intn(ref.Len() - window + 1)
			q := ref.Slice(off, off+window)
			matches, st, err := lib.Lookup(q)
			if err != nil {
				return nil, err
			}
			probeOps += st.BucketProbes
			for _, m := range matches {
				if m.Ref == ri && m.Off == off {
					found++
					break
				}
			}
			for _, rec := range ds.Recs {
				_, ops := baseline.ShiftOr{}.Find(rec.Seq, q)
				scanOps += ops
			}
			hv := lib.Encoder().Encode(q, 0, modeOf(lib))
			_, c, err := eng.Search(hv)
			if err != nil {
				return nil, err
			}
			pimCost.Add(c)
		}
		gpu, err := accel.RTX3060Ti().Evaluate(accel.Workload{
			DBBases: ds.TotalBases(), Queries: trials,
			PatternLen: window, Approx: true,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(ds.TotalBases(), lib.Describe().Buckets,
			float64(probeOps)/float64(trials),
			float64(scanOps)/float64(trials),
			pimCost.LatencyNs/float64(trials)/1000,
			gpu.LatencyNs/float64(trials)/1000,
			float64(found)/float64(trials))
	}
	return &Result{Tables: []*Table{t}}, nil
}

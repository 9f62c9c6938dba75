package workload

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/genome"
	"repro/internal/rng"
)

func init() {
	register(Experiment{ID: "F14", Title: "Index comparison: BioHD vs FM-index vs Bloom vs whole-ref HDC", Run: runF14})
}

// runF14 compares BioHD's bucketed superposition library against the
// three alternative index designs on the same exact-membership workload:
//
//   - FM-index: the genomics standard (exact, positional, O(m)/query);
//   - k-mer Bloom filter: compact membership, no positions, tunable FPR;
//   - whole-reference HDC: GenieHD-style one-vector-per-reference
//     encoding, whose member signal drowns once N ≳ D windows.
//
// Recall and FPR are measured end-to-end; memory and ops/query come from
// each structure's own accounting.
func runF14(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	const window = 32
	refLen := cfg.scaled(50_000, 5_000)
	nRefs := 4
	probes := cfg.scaled(200, 40)
	src := rng.New(cfg.Seed + 141)
	refs := make([]*genome.Sequence, nRefs)
	for i := range refs {
		refs[i] = genome.Random(refLen, src)
	}

	// BioHD library.
	lib, err := core.NewLibrary(core.Params{Dim: 8192, Window: window, Seed: cfg.Seed + 142})
	if err != nil {
		return nil, err
	}
	for i, r := range refs {
		if err := lib.Add(genome.Record{ID: string(rune('a' + i)), Seq: r}); err != nil {
			return nil, err
		}
	}
	lib.Freeze()

	// FM-indexes (one per reference, as aligners build them).
	var fms []*baseline.FMIndex
	for _, r := range refs {
		fm, _, err := baseline.NewFMIndex(r)
		if err != nil {
			return nil, err
		}
		fms = append(fms, fm)
	}

	// Bloom filter over all window-length w-mers.
	bloom, err := baseline.NewKmerBloom(window, nRefs*refLen, 0.001)
	if err != nil {
		return nil, err
	}
	for _, r := range refs {
		bloom.AddSequence(r)
	}

	// Whole-reference HDC.
	whole, err := baseline.NewWholeRefHDC(encoding.Config{Dim: 8192, Window: window, Seed: cfg.Seed + 143})
	if err != nil {
		return nil, err
	}
	for _, r := range refs {
		if err := whole.Add(r); err != nil {
			return nil, err
		}
	}

	type tally struct {
		tp, fn, fp, tn, ops int
	}
	var bio, fm, blm, whl tally
	record := func(t *tally, present, answered bool, ops int) {
		t.ops += ops
		switch {
		case present && answered:
			t.tp++
		case present && !answered:
			t.fn++
		case !present && answered:
			t.fp++
		default:
			t.tn++
		}
	}
	for i := 0; i < probes; i++ {
		var q *genome.Sequence
		present := i%2 == 0
		if present {
			ri := src.Intn(nRefs)
			off := src.Intn(refLen - window)
			q = refs[ri].Slice(off, off+window)
		} else {
			q = genome.Random(window, src)
			found := false
			for _, r := range refs {
				if r.Index(q, 0) >= 0 {
					found = true
				}
			}
			if found {
				present = true
			}
		}
		// BioHD.
		ok, st, err := lib.Contains(q)
		if err != nil {
			return nil, err
		}
		record(&bio, present, ok, st.BucketProbes)
		// FM-index: count over each per-reference index.
		hits, ops := 0, 0
		for _, f := range fms {
			c, o := f.Count(q)
			hits += c
			ops += o
		}
		record(&fm, present, hits > 0, ops)
		// Bloom.
		has, o, err := bloom.Contains(q)
		if err != nil {
			return nil, err
		}
		record(&blm, present, has, o)
		// Whole-reference HDC at a 4σ threshold.
		got, o2, err := whole.Contains(q, 4)
		if err != nil {
			return nil, err
		}
		record(&whl, present, got, o2)
	}

	t := &Table{
		ID:    "F14",
		Title: "Exact window membership across index designs",
		Columns: []string{"engine", "recall", "FPR", "ops/query", "mem-KiB",
			"positions", "mutation-tolerant"},
		Notes: []string{
			"workload: half planted windows, half random 32-mers, over 4 references",
			"whole-ref HDC thresholded at 4σ; its recall collapses as windows/reference exceed D",
		},
	}
	rate := func(t tally) (float64, float64) {
		rec := 0.0
		if t.tp+t.fn > 0 {
			rec = float64(t.tp) / float64(t.tp+t.fn)
		}
		fpr := 0.0
		if t.fp+t.tn > 0 {
			fpr = float64(t.fp) / float64(t.fp+t.tn)
		}
		return rec, fpr
	}
	r1, f1 := rate(bio)
	t.AddRow("biohd", r1, f1, float64(bio.ops)/float64(probes),
		float64(lib.Describe().MemoryBytes)/1024, "yes", "yes (approx mode)")
	r2, f2 := rate(fm)
	var fmMem int64
	for _, f := range fms {
		fmMem += f.MemoryFootprint()
	}
	t.AddRow("fm-index", r2, f2, float64(fm.ops)/float64(probes),
		float64(fmMem)/1024, "yes", "no")
	r3, f3 := rate(blm)
	t.AddRow("bloom", r3, f3, float64(blm.ops)/float64(probes),
		float64(bloom.MemoryFootprint())/1024, "no", "no")
	r4, f4 := rate(whl)
	t.AddRow("wholeref-hdc", r4, f4, float64(whl.ops)/float64(probes),
		float64(whole.MemoryFootprint())/1024, "no", "degraded")
	return &Result{Tables: []*Table{t}}, nil
}

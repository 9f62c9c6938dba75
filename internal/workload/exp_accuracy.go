package workload

import (
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/genome"
	"repro/internal/rng"
	"repro/internal/stats"
)

func init() {
	register(Experiment{ID: "T1", Title: "Dataset inventory", Run: runT1})
	register(Experiment{ID: "F1", Title: "Exact-match filter accuracy vs dimension", Run: runF1})
	register(Experiment{ID: "F2", Title: "Statistical model validation", Run: runF2})
	register(Experiment{ID: "F3", Title: "Approximate search vs mutation rate", Run: runF3})
	register(Experiment{ID: "F4", Title: "Window/stride geometry ablation", Run: runF4})
}

// runT1 reports the evaluation datasets (paper: "a wide range of
// genomics data, including COVID-19 databases").
func runT1(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	covid, err := covidDataset(cfg)
	if err != nil {
		return nil, err
	}
	sets := []Dataset{covid, bacterialDataset(cfg), skewedDataset(cfg)}
	t := &Table{
		ID:      "T1",
		Title:   "Evaluation datasets (synthetic equivalents, DESIGN.md §4)",
		Columns: []string{"dataset", "sequences", "total-bases", "mean-len", "GC"},
	}
	for _, ds := range sets {
		t.AddRow(ds.Name, len(ds.Recs), ds.TotalBases(),
			float64(ds.TotalBases())/float64(len(ds.Recs)), ds.GCContent())
	}
	return &Result{Tables: []*Table{t}}, nil
}

// runF1 sweeps the hypervector dimension and reports the HDC filter's
// recall and false-positive rate for exact matching, before sequence
// verification — the paper's accuracy-vs-dimension curve.
func runF1(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	const window = 32
	refLen := cfg.scaled(60_000, 4_000)
	ref := genome.Random(refLen, rng.New(cfg.Seed))
	probes := cfg.scaled(300, 40)

	t := &Table{
		ID:    "F1",
		Title: "Exact-match HDC filter quality vs dimension D",
		Columns: []string{"D", "capacity", "buckets", "recall", "filter-FPR",
			"model-FNR", "model-FPR"},
		Notes: []string{
			"recall/filter-FPR measured on the raw HDC stage (no verification)",
			"capacity auto-derived from the statistical model at each D",
		},
	}
	for _, d := range []int{1024, 2048, 4096, 8192, 16384} {
		lib, err := buildLibrary(core.Params{
			Dim: d, Window: window, Seed: cfg.Seed + uint64(d),
		}, Dataset{Name: "rand", Recs: []genome.Record{{ID: "r", Seq: ref}}})
		if err != nil {
			return nil, err
		}
		src := rng.New(cfg.Seed + uint64(d) + 7)
		recall, fpr := filterRates(lib, ref, window, probes, src)
		m := lib.Model()
		info := lib.Describe()
		t.AddRow(d, lib.Params().Capacity, info.Buckets, recall, fpr,
			m.FNR(info.Threshold, 0), m.FPR(info.Threshold))
	}
	return &Result{Tables: []*Table{t}}, nil
}

// filterRates measures the HDC candidate stage: recall = fraction of
// planted window queries whose true bucket crosses the threshold;
// FPR = fraction of (absent query, bucket) pairs crossing it.
func filterRates(lib *core.Library, ref *genome.Sequence, window, probes int, src *rng.Source) (recall, fpr float64) {
	found := 0
	for i := 0; i < probes; i++ {
		off := src.Intn(ref.Len() - window + 1)
		q := ref.Slice(off, off+window)
		hv := lib.Encoder().Encode(q, 0, modeOf(lib))
		cands, err := lib.Probe(hv, nil)
		if err != nil {
			return 0, 0
		}
		for _, c := range cands {
			if bucketHasWindow(lib, c.Bucket, off) {
				found++
				break
			}
		}
	}
	recall = float64(found) / float64(probes)
	fpHits, fpPairs := 0, 0
	buckets := lib.Describe().Buckets
	for i := 0; i < probes; i++ {
		q := genome.Random(window, src)
		if ref.Index(q, 0) >= 0 {
			continue
		}
		hv := lib.Encoder().Encode(q, 0, modeOf(lib))
		cands, _ := lib.Probe(hv, nil)
		fpHits += len(cands)
		fpPairs += buckets
	}
	if fpPairs > 0 {
		fpr = float64(fpHits) / float64(fpPairs)
	}
	return recall, fpr
}

// runF2 validates the statistical model: predicted vs measured score
// means and deviations, for both encodings.
func runF2(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	const window = 33
	refLen := cfg.scaled(40_000, 4_000)
	probes := cfg.scaled(250, 40)
	t := &Table{
		ID:    "F2",
		Title: "Score distributions: a-priori model vs measured",
		Columns: []string{"mode", "C", "muts", "model-mean", "meas-mean", "err%",
			"model-sigma", "meas-sigma"},
		Notes: []string{
			"approx rows at C>1 show the overlap-correlation drift the freeze-time calibration absorbs",
		},
	}
	for _, tc := range []struct {
		approx bool
		cap    int
		muts   int
	}{
		{false, 16, 0}, {false, 64, 0},
		{true, 1, 0}, {true, 1, 4},
		{true, 4, 0}, {true, 4, 4},
	} {
		ref := genome.Random(refLen, rng.New(cfg.Seed+uint64(tc.cap)))
		lib, err := buildLibrary(core.Params{
			Dim: 8192, Window: window, Approx: tc.approx,
			Capacity: tc.cap, MutTolerance: boolMut(tc.approx, 6),
			Seed: cfg.Seed + uint64(tc.cap) + 13,
		}, Dataset{Name: "rand", Recs: []genome.Record{{ID: "r", Seq: ref}}})
		if err != nil {
			return nil, err
		}
		src := rng.New(cfg.Seed + uint64(tc.cap) + uint64(tc.muts)*31)
		var meas stats.Welford
		for i := 0; i < probes; i++ {
			off := src.Intn(ref.Len() - window + 1)
			q := ref.Slice(off, off+window)
			if tc.muts > 0 {
				q, _ = genome.SubstituteExactly(q, tc.muts, src)
			}
			hv := lib.Encoder().Encode(q, 0, modeOf(lib))
			b, ok := bucketOfWindow(lib, off)
			if !ok {
				continue
			}
			meas.Add(float64(lib.BucketVector(b).Dot(hv)))
		}
		m := lib.Model()
		modelMean := m.SignalMean(tc.muts)
		errPct := 100 * math.Abs(meas.Mean()-modelMean) / modelMean
		t.AddRow(modeName(tc.approx), tc.cap, tc.muts, modelMean, meas.Mean(),
			errPct, m.NoiseSigma(), meas.StdDev())
	}
	return &Result{Tables: []*Table{t}}, nil
}

// runF3 sweeps the per-window mutation rate and reports end-to-end
// sensitivity of approximate search, with Myers' edit-distance matcher
// as ground truth.
func runF3(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	const window = 48
	refLen := cfg.scaled(30_000, 4_000)
	trials := cfg.scaled(120, 30)
	ref := genome.Random(refLen, rng.New(cfg.Seed+3))
	tol := 7 // ≈15% of the window
	lib, err := buildLibrary(core.Params{
		Dim: 8192, Window: window, Approx: true,
		Capacity: 2, MutTolerance: tol, Seed: cfg.Seed + 4,
	}, Dataset{Name: "rand", Recs: []genome.Record{{ID: "r", Seq: ref}}})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "F3",
		Title: "Approximate search sensitivity vs mutation rate",
		Columns: []string{"mut-rate%", "muts/window", "BioHD-recall", "oracle-recall",
			"BioHD-verified-FP"},
		Notes: []string{
			"oracle = Myers bit-parallel matcher at the same substitution budget",
			"verified-FP counts matches whose true distance exceeds tolerance (must be 0)",
		},
	}
	for _, rate := range []float64{0, 0.02, 0.05, 0.08, 0.10, 0.15} {
		muts := int(math.Round(rate * window))
		src := rng.New(cfg.Seed + uint64(rate*1000) + 5)
		found, oracleFound, badMatches := 0, 0, 0
		for i := 0; i < trials; i++ {
			off := src.Intn(ref.Len() - window + 1)
			q, _ := genome.SubstituteExactly(ref.Slice(off, off+window), muts, src)
			matches, _, err := lib.Lookup(q)
			if err != nil {
				return nil, err
			}
			for _, m := range matches {
				if m.Off == off {
					found++
					break
				}
			}
			for _, m := range matches {
				if m.Distance > tol {
					badMatches++
				}
			}
			if muts <= tol {
				occ, _ := baseline.Myers{}.Find(ref, q, muts)
				for _, o := range occ {
					if o.End == off+window {
						oracleFound++
						break
					}
				}
			}
		}
		oracleRecall := float64(oracleFound) / float64(trials)
		if muts > tol {
			oracleRecall = math.NaN()
		}
		t.AddRow(100*rate, muts, float64(found)/float64(trials), oracleRecall, badMatches)
	}
	return &Result{Tables: []*Table{t}}, nil
}

// runF4 ablates the window length and stride: recall of mutated queries,
// library footprint, and probe work.
func runF4(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	refLen := cfg.scaled(20_000, 4_000)
	trials := cfg.scaled(80, 20)
	ref := genome.Random(refLen, rng.New(cfg.Seed+6))
	t := &Table{
		ID:    "F4",
		Title: "Geometry ablation: window and stride",
		Columns: []string{"window", "stride", "buckets", "mem-KiB", "recall@5%",
			"probes/query"},
		Notes: []string{"queries carry ⌈5% of window⌉ substitutions; stride>1 queries supply window+stride−1 bases"},
	}
	for _, window := range []int{24, 32, 48, 64} {
		for _, stride := range []int{1, 2, 4} {
			tol := (window + 19) / 20 // ≈5%
			lib, err := buildLibrary(core.Params{
				Dim: 8192, Window: window, Stride: stride,
				Approx: true, Capacity: 2, MutTolerance: tol,
				Seed: cfg.Seed + uint64(window*10+stride),
			}, Dataset{Name: "rand", Recs: []genome.Record{{ID: "r", Seq: ref}}})
			if err != nil {
				return nil, err
			}
			src := rng.New(cfg.Seed + uint64(window*100+stride))
			found := 0
			var probes int
			for i := 0; i < trials; i++ {
				qLen := window + stride - 1
				off := src.Intn(ref.Len() - qLen + 1)
				q, _ := genome.SubstituteExactly(ref.Slice(off, off+qLen), tol, src)
				matches, st, err := lib.Lookup(q)
				if err != nil {
					return nil, err
				}
				probes += st.BucketProbes
				for _, m := range matches {
					if m.Off == off+m.QueryOff {
						found++
						break
					}
				}
			}
			info := lib.Describe()
			t.AddRow(window, stride, info.Buckets,
				float64(info.MemoryBytes)/1024,
				float64(found)/float64(trials),
				float64(probes)/float64(trials))
		}
	}
	return &Result{Tables: []*Table{t}}, nil
}

// --- shared helpers ---------------------------------------------------------

func modeName(approx bool) string {
	if approx {
		return "approx"
	}
	return "exact"
}

func boolMut(approx bool, tol int) int {
	if approx {
		return tol
	}
	return 0
}

// bucketHasWindow reports whether bucket b contains the window at off in
// reference 0.
func bucketHasWindow(lib *core.Library, b, off int) bool {
	for _, wr := range lib.BucketWindows(b) {
		if wr.Ref == 0 && int(wr.Off) == off {
			return true
		}
	}
	return false
}

// modeOf returns the encoding mode a library's queries must use.
func modeOf(lib *core.Library) encoding.Mode {
	if lib.Params().Approx {
		return encoding.ModeApprox
	}
	return encoding.ModeExact
}

// bucketOfWindow returns the bucket holding reference 0's window at off.
func bucketOfWindow(lib *core.Library, off int) (int, bool) {
	for b, n := 0, lib.Describe().Buckets; b < n; b++ {
		if bucketHasWindow(lib, b, off) {
			return b, true
		}
	}
	return 0, false
}

package workload

import (
	"math"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
	"repro/internal/stats"
)

func init() {
	register(Experiment{ID: "F11", Title: "Ablation: sealed vs raw-counter buckets", Run: runF11})
}

// runF11 quantifies the sealed/raw-counter design choice (DESIGN.md §6
// item 1): binarized buckets are 32× smaller and crossbar-native but
// lose the ρ(C) attenuation, so their admissible capacity is smaller.
// Libraries store only sealed buckets, so the raw row is the model's
// closed form over the same reference (rawCounterRow).
func runF11(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	const dim, window = 8192, 32
	refLen := cfg.scaled(40_000, 4_000)
	probes := cfg.scaled(150, 30)
	ref := genome.Random(refLen, rng.New(cfg.Seed+101))
	t := &Table{
		ID:    "F11",
		Title: "Sealed (binary) vs raw-counter bucket storage",
		Columns: []string{"storage", "auto-capacity", "buckets", "mem-KiB",
			"recall", "filter-FPR", "PIM-native"},
		Notes: []string{
			"auto-capacity from the statistical model at D=8192, exact mode",
			"raw counters score with full precision but need 32 bits/dim and cannot map onto binary crossbars",
			"raw row: the model in closed form (no library stores raw counters); memory is the counters alone",
		},
	}
	lib, err := buildLibrary(core.Params{Dim: dim, Window: window, Seed: cfg.Seed + 102},
		Dataset{Name: "rand", Recs: []genome.Record{{ID: "r", Seq: ref}}})
	if err != nil {
		return nil, err
	}
	p := lib.Params()
	recall, fpr := filterRates(lib, ref, window, probes, rng.New(cfg.Seed+103))
	info := lib.Describe()
	t.AddRow("sealed", p.Capacity, info.Buckets,
		float64(info.MemoryBytes)/1024, recall, fpr, "yes")
	c, buckets, recall, fpr := rawCounterRow(dim, info.Windows, p.Alpha, p.Beta)
	t.AddRow("raw-counters (model)", c, buckets, float64(buckets*dim*4)/1024,
		recall, fpr, "no (digital PIM)")
	return &Result{Tables: []*Table{t}}, nil
}

// rawCounterRow is F11's raw-counter row in closed form, for windows
// exact-mode windows at dimension d. A raw bucket of C windows scores a
// member N(D, (C−1)·D) and anything else N(0, C·D), so the largest C
// whose gap holds zGap = z(α/2²⁰) + z(β) noise sigmas — the Bonferroni
// term core's capacity planning assumes — is ⌊D/zGap²⌋. The windows fill
// ⌈windows/C⌉ buckets, searched at the threshold core's model places
// between the two targets over that many buckets; recall and the
// per-bucket false-positive rate are the two distributions' tails there.
func rawCounterRow(d, windows int, alpha, beta float64) (c, buckets int, recall, fpr float64) {
	zGap := stats.NormalUpperQuantile(alpha/(1<<20)) + stats.NormalUpperQuantile(beta)
	c = max(int(float64(d)/(zGap*zGap)), 1)
	buckets = (windows + c - 1) / c
	noise := math.Sqrt(float64(c * d))
	tau := stats.NormalUpperQuantile(alpha/float64(buckets)) * noise
	if tauFN := float64(d) - stats.NormalUpperQuantile(beta)*noise; tauFN >= tau {
		tau = (tau + tauFN) / 2
	}
	member := math.Sqrt(float64((c - 1) * d))
	return c, buckets, stats.NormalTail((tau - float64(d)) / member), stats.NormalTail(tau / noise)
}

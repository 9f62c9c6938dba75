package repro

// One benchmark per experiment in DESIGN.md §3. Each benchmark runs its
// experiment end-to-end at a bench-friendly scale and reports the
// headline quantity of that table/figure as a custom metric, so
// `go test -bench=.` regenerates the whole evaluation. Run
// `go run ./cmd/biohd experiment all` for the full-scale tables.

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

// benchCfg keeps per-iteration work bounded; the printed tables in
// EXPERIMENTS.md come from scale 1.0 runs of cmd/biohd.
var benchCfg = workload.Config{Scale: 0.1, Seed: 42}

// runExperiment executes one experiment per benchmark iteration and
// returns the final result for metric extraction.
func runExperiment(b *testing.B, id string) *workload.Result {
	b.Helper()
	e, ok := workload.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var res *workload.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = e.Run(benchCfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	return res
}

// metric parses a (possibly "12.3x"-suffixed) numeric cell.
func metric(b *testing.B, res *workload.Result, row, col int) float64 {
	b.Helper()
	cell := strings.TrimSuffix(res.Tables[0].Rows[row][col], "x")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, cell, err)
	}
	return v
}

func BenchmarkT1DatasetBuild(b *testing.B) {
	res := runExperiment(b, "T1")
	b.ReportMetric(metric(b, res, 0, 2), "covid-bases")
}

func BenchmarkF1AccuracyVsDim(b *testing.B) {
	res := runExperiment(b, "F1")
	last := len(res.Tables[0].Rows) - 1
	b.ReportMetric(metric(b, res, last, 3), "recall@maxD")
	b.ReportMetric(metric(b, res, last, 1), "capacity@maxD")
}

func BenchmarkF2ModelValidation(b *testing.B) {
	res := runExperiment(b, "F2")
	worst := 0.0
	for i := range res.Tables[0].Rows {
		if e := metric(b, res, i, 5); e > worst {
			worst = e
		}
	}
	b.ReportMetric(worst, "worst-model-err-%")
}

func BenchmarkF3ApproxVsMutation(b *testing.B) {
	res := runExperiment(b, "F3")
	last := len(res.Tables[0].Rows) - 1
	b.ReportMetric(metric(b, res, last, 2), "recall@15%mut")
}

func BenchmarkF4GeometryAblation(b *testing.B) {
	res := runExperiment(b, "F4")
	b.ReportMetric(metric(b, res, 0, 4), "recall@w24s1")
	last := len(res.Tables[0].Rows) - 1
	b.ReportMetric(metric(b, res, last, 4), "recall@w64s4")
}

func BenchmarkT2OpCounts(b *testing.B) {
	res := runExperiment(b, "T2")
	probe := metric(b, res, 0, 1) // biohd bucket probes
	var naive float64
	for i, row := range res.Tables[0].Rows {
		if row[0] == "naive" {
			naive = metric(b, res, i, 1)
		}
	}
	b.ReportMetric(naive/probe, "naive-ops/probe")
}

func BenchmarkF5SoftwareThroughput(b *testing.B) {
	res := runExperiment(b, "F5")
	b.ReportMetric(metric(b, res, 0, 1), "biohd-qps")
}

func BenchmarkF6PIMSpeedup(b *testing.B) {
	res := runExperiment(b, "F6")
	b.ReportMetric(metric(b, res, 1, 4), "speedup-vs-gpu")
	b.ReportMetric(metric(b, res, 1, 5), "energy-eff-vs-gpu")
	b.ReportMetric(metric(b, res, 2, 4), "speedup-vs-sotapim")
}

func BenchmarkF7PIMBaseline(b *testing.B) {
	res := runExperiment(b, "F7")
	b.ReportMetric(metric(b, res, 0, 5), "covid-speedup-vs-sotapim")
}

func BenchmarkF8PIMSensitivity(b *testing.B) {
	res := runExperiment(b, "F8")
	b.ReportMetric(metric(b, res, 2, 3), "us-per-query@1024x1024")
}

func BenchmarkT3PIMOps(b *testing.B) {
	res := runExperiment(b, "T3")
	for i, row := range res.Tables[0].Rows {
		if row[0] == "xnor" {
			b.ReportMetric(metric(b, res, i, 3), "xnor-per-search")
		}
	}
}

func BenchmarkF9Scalability(b *testing.B) {
	res := runExperiment(b, "F9")
	rows := res.Tables[0].Rows
	first := metric(b, res, 0, 4)
	last := metric(b, res, len(rows)-1, 4)
	b.ReportMetric(last/first, "pim-latency-growth")
	gFirst := metric(b, res, 0, 5)
	gLast := metric(b, res, len(rows)-1, 5)
	b.ReportMetric(gLast/gFirst, "gpu-latency-growth")
}

func BenchmarkF10Covid(b *testing.B) {
	res := runExperiment(b, "F10")
	b.ReportMetric(metric(b, res, 0, 1), "classification-accuracy")
}

func BenchmarkF11SealedVsRaw(b *testing.B) {
	res := runExperiment(b, "F11")
	sealedCap := metric(b, res, 0, 1)
	rawCap := metric(b, res, 1, 1)
	b.ReportMetric(rawCap/sealedCap, "raw-capacity-advantage")
	b.ReportMetric(metric(b, res, 1, 3)/metric(b, res, 0, 3), "raw-memory-cost")
}

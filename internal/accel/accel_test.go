package accel

import (
	"math"
	"testing"
)

func covidWorkload() Workload {
	// 64 SARS-CoV-2-scale references, one batch of window queries.
	return Workload{DBBases: 64 * 29903, Queries: 1000, PatternLen: 32, Approx: true}
}

func TestWorkloadValidate(t *testing.T) {
	if err := covidWorkload().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []Workload{
		{DBBases: 0, Queries: 1, PatternLen: 1},
		{DBBases: 1, Queries: 0, PatternLen: 1},
		{DBBases: 1, Queries: 1, PatternLen: 0},
	} {
		if err := w.Validate(); err == nil {
			t.Fatalf("workload %+v accepted", w)
		}
	}
}

func TestGPUModelScalesWithWork(t *testing.T) {
	g := RTX3060Ti()
	small := covidWorkload()
	big := small
	big.DBBases *= 10
	eSmall, err := g.Evaluate(small)
	if err != nil {
		t.Fatal(err)
	}
	eBig, err := g.Evaluate(big)
	if err != nil {
		t.Fatal(err)
	}
	ratio := eBig.LatencyNs / eSmall.LatencyNs
	if ratio < 9 || ratio > 10.5 { // near-linear modulo fixed overhead
		t.Fatalf("10× work gave %vx latency", ratio)
	}
	if eBig.EnergyPj <= eSmall.EnergyPj {
		t.Fatal("energy did not grow with work")
	}
}

func TestGPUModelExactCheaperThanApprox(t *testing.T) {
	g := RTX3060Ti()
	w := covidWorkload()
	approx, _ := g.Evaluate(w)
	w.Approx = false
	exact, err := g.Evaluate(w)
	if err != nil {
		t.Fatal(err)
	}
	if exact.LatencyNs >= approx.LatencyNs {
		t.Fatalf("exact scan %v not cheaper than DP %v", exact.LatencyNs, approx.LatencyNs)
	}
}

func TestGPUEnergyIsPowerTimesLatency(t *testing.T) {
	g := RTX3060Ti()
	e, err := g.Evaluate(covidWorkload())
	if err != nil {
		t.Fatal(err)
	}
	want := g.BoardPowerW * e.LatencyNs * 1e3
	if math.Abs(e.EnergyPj-want)/want > 1e-12 {
		t.Fatalf("energy %v, want %v", e.EnergyPj, want)
	}
}

func TestPIMBaselineParallelismHelps(t *testing.T) {
	p := SOTAPIM()
	e1, err := p.Evaluate(covidWorkload())
	if err != nil {
		t.Fatal(err)
	}
	p.Segments *= 4
	e2, err := p.Evaluate(covidWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if r := e1.LatencyNs / e2.LatencyNs; math.Abs(r-4) > 1e-9 {
		t.Fatalf("4× segments gave %vx speedup", r)
	}
	// Dynamic energy is parallelism-independent; only the static share
	// shrinks.
	if e2.EnergyPj >= e1.EnergyPj {
		t.Fatal("more parallelism did not reduce energy")
	}
}

func TestPIMBaselineRejectsBadModel(t *testing.T) {
	p := SOTAPIM()
	p.Segments = 0
	if _, err := p.Evaluate(covidWorkload()); err == nil {
		t.Fatal("zero segments accepted")
	}
}

func TestModelsEvaluateErrors(t *testing.T) {
	bad := Workload{}
	if _, err := RTX3060Ti().Evaluate(bad); err == nil {
		t.Fatal("GPU accepted bad workload")
	}
	if _, err := SOTAPIM().Evaluate(bad); err == nil {
		t.Fatal("PIM accepted bad workload")
	}
}

func TestBioHDSystemWrap(t *testing.T) {
	sys := DefaultBioHDSystem()
	e := sys.Wrap(1000, 500, 100) // 1 µs, 500 pJ dynamic, 100 arrays
	if e.LatencyNs != 1000 {
		t.Fatal("latency passed through wrongly")
	}
	wantStatic := (sys.PerArrayPowerW*100 + sys.ControllerPowerW) * 1000 * 1e3
	if math.Abs(e.EnergyPj-(500+wantStatic)) > 1e-9 {
		t.Fatalf("energy %v, want %v", e.EnergyPj, 500+wantStatic)
	}
	// More active arrays, more power.
	if sys.Wrap(1000, 500, 200).EnergyPj <= e.EnergyPj {
		t.Fatal("power did not scale with active arrays")
	}
}

func TestEstimateHelpers(t *testing.T) {
	e := Estimate{LatencyNs: 2e9} // 2 s for the batch
	if got := e.ThroughputQPS(1000); math.Abs(got-500) > 1e-9 {
		t.Fatalf("qps %v", got)
	}
	if (Estimate{}).ThroughputQPS(10) != 0 {
		t.Fatal("zero-latency throughput not 0")
	}
}

func TestModelInterfaces(t *testing.T) {
	if _, err := RTX3060Ti().Evaluate(covidWorkload()); err != nil {
		t.Fatalf("rtx3060ti: %v", err)
	}
	if _, err := SOTAPIM().Evaluate(covidWorkload()); err != nil {
		t.Fatalf("sota-pim: %v", err)
	}
}

// Package accel provides analytic cost models for the accelerators BioHD
// is compared against in the paper's evaluation: a GeForce RTX 3060 Ti
// class GPU running state-of-the-art pattern matching, and a
// state-of-the-art digital PIM accelerator executing classical matching
// in memory.
//
// Neither device is available in this environment, so both comparators
// are roofline-style cost models (see DESIGN.md §4): latency follows
// from algorithmic work divided by a sustained throughput, energy from
// board power times latency plus per-operation costs. The sustained
// throughputs are calibrated to published operating points of real
// kernels (GPU Smith–Waterman/Myers implementations sustain on the order
// of 10²–10³ giga cell-updates per second; digital PIM pattern matchers
// spend tens of row operations per scanned base per segment). Absolute
// numbers carry that calibration; the *shapes* — who wins, how ratios
// scale with database size and parallelism — follow from the model
// structure and are what the F6/F7/F9 experiments reproduce.
package accel

import "fmt"

// Workload describes a batch of pattern searches against a reference
// database, in algorithm-independent terms.
type Workload struct {
	DBBases    int64 // reference bases each query is matched against
	Queries    int   // queries in the batch
	PatternLen int   // pattern length in bases
	Approx     bool  // approximate (alignment) vs exact matching
}

// Validate checks the workload.
func (w Workload) Validate() error {
	if w.DBBases <= 0 || w.Queries <= 0 || w.PatternLen <= 0 {
		return fmt.Errorf("accel: non-positive workload %+v", w)
	}
	return nil
}

// Estimate is a modelled batch cost.
type Estimate struct {
	LatencyNs float64
	EnergyPj  float64
}

// ThroughputQPS returns queries per second for the batch.
func (e Estimate) ThroughputQPS(queries int) float64 {
	if e.LatencyNs == 0 {
		return 0
	}
	return float64(queries) / (e.LatencyNs * 1e-9)
}

// GPUModel is a throughput/roofline model of a discrete GPU running the
// best-known pattern-matching kernel for the workload class: Myers
// bit-parallel (exact and small-k) counted in cell updates, plus a fixed
// per-batch launch/transfer overhead and board power.
type GPUModel struct {
	ModelName       string
	SustainedGCUPS  float64 // sustained giga cell-updates per second
	ExactGBPS       float64 // sustained giga bases/s for exact automaton scans
	BatchOverheadNs float64 // kernel launch + PCIe transfer per batch
	BoardPowerW     float64
}

// RTX3060Ti returns the GPU comparator calibrated to a GeForce RTX 3060
// Ti class card (448 GB/s, 200 W board power): alignment kernels sustain
// ≈85 GCUPS end-to-end, exact multi-pattern scans ≈25 Gbases/s effective.
func RTX3060Ti() GPUModel {
	return GPUModel{
		ModelName:       "rtx3060ti",
		SustainedGCUPS:  85,
		ExactGBPS:       25,
		BatchOverheadNs: 20_000,
		BoardPowerW:     200,
	}
}

// Evaluate returns the GPU's modelled cost of w.
func (g GPUModel) Evaluate(w Workload) (Estimate, error) {
	if err := w.Validate(); err != nil {
		return Estimate{}, err
	}
	var kernelNs float64
	if w.Approx {
		// DP cell updates: pattern length × text length per query.
		cells := float64(w.Queries) * float64(w.DBBases) * float64(w.PatternLen)
		kernelNs = cells / g.SustainedGCUPS
	} else {
		bases := float64(w.Queries) * float64(w.DBBases)
		kernelNs = bases / g.ExactGBPS
	}
	latency := kernelNs + g.BatchOverheadNs
	return Estimate{
		LatencyNs: latency,
		EnergyPj:  wattNsToPj(g.BoardPowerW, latency),
	}, nil
}

// PIMBaselineModel is the state-of-the-art digital PIM comparator: the
// classical matching algorithm executed bit-serially inside memory,
// the database partitioned across independently scanning segments.
type PIMBaselineModel struct {
	ModelName    string
	Segments     int     // concurrently scanning memory segments
	OpsPerBase   float64 // row operations spent per scanned base per query
	RowOpNs      float64 // latency of one in-memory row operation
	RowOpPj      float64 // energy of one row operation
	SystemPowerW float64 // controller + periphery power while scanning
}

// SOTAPIM returns the digital-PIM comparator calibrated to published
// bit-serial in-memory pattern matchers: thousands of segments, tens of
// row operations per scanned base (bit-serial compare, carry, and state
// update), each row op at DRAM-row-activation-class energy.
func SOTAPIM() PIMBaselineModel {
	return PIMBaselineModel{
		ModelName:    "sota-pim",
		Segments:     1024,
		OpsPerBase:   28,
		RowOpNs:      1.3,
		RowOpPj:      220,
		SystemPowerW: 12,
	}
}

// Evaluate returns the PIM baseline's modelled cost of w.
func (p PIMBaselineModel) Evaluate(w Workload) (Estimate, error) {
	if err := w.Validate(); err != nil {
		return Estimate{}, err
	}
	if p.Segments <= 0 {
		return Estimate{}, fmt.Errorf("accel: model %q has %d segments", p.ModelName, p.Segments)
	}
	basesPerSegment := float64(w.DBBases) / float64(p.Segments)
	perQueryNs := basesPerSegment * p.OpsPerBase * p.RowOpNs
	latency := perQueryNs * float64(w.Queries)
	rowOps := float64(w.Queries) * float64(w.DBBases) * p.OpsPerBase
	return Estimate{
		LatencyNs: latency,
		EnergyPj:  rowOps*p.RowOpPj + wattNsToPj(p.SystemPowerW, latency),
	}, nil
}

// BioHDSystem converts the PIM simulator's per-batch dynamic cost into a
// system-level estimate comparable with the other models, by adding the
// periphery power of every concurrently active array plus the controller
// draw over the batch latency. The dynamic array-operation component
// comes from the functional simulator (internal/pim); only the static
// wrapper is modelled here. Power scaling with active arrays is what
// makes massive parallelism cost real watts.
type BioHDSystem struct {
	PerArrayPowerW   float64 // sense amps + popcount tree + row drivers, per active array
	ControllerPowerW float64 // chip controller and broadcast bus
}

// DefaultBioHDSystem returns the reference system wrapper.
func DefaultBioHDSystem() BioHDSystem {
	return BioHDSystem{PerArrayPowerW: 0.7, ControllerPowerW: 5}
}

// Wrap combines the simulator's dynamic cost with system power for the
// given number of concurrently active arrays. latencyNs and dynamicPj
// come from pim.Cost for the whole batch.
func (b BioHDSystem) Wrap(latencyNs, dynamicPj float64, activeArrays int) Estimate {
	power := b.PerArrayPowerW*float64(activeArrays) + b.ControllerPowerW
	return Estimate{
		LatencyNs: latencyNs,
		EnergyPj:  dynamicPj + wattNsToPj(power, latencyNs),
	}
}

// wattNsToPj converts power (W) sustained over a duration (ns) to energy
// in picojoules: 1 W·ns = 10⁻⁹ J = 1000 pJ.
func wattNsToPj(watts, ns float64) float64 {
	return watts * ns * 1e3
}

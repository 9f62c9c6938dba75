package pim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hdc"
)

// ChipConfig describes the crossbar chip: identical arrays operating in
// parallel, each with its own periphery, grouped into banks that share a
// broadcast bus.
type ChipConfig struct {
	ArrayRows     int // rows per array
	ArrayCols     int // columns per array (positive multiple of 64)
	NumArrays     int // arrays on the chip
	ArraysPerBank int // arrays sharing one broadcast bus (0 = 64)
	// Multicast delivers a broadcast row to every array of a bank in one
	// bus transaction (BioHD's peripheral extension); false serializes
	// the bus per array, adding contention the F8 sweep can expose.
	Multicast bool
	Device    DeviceParams
}

// DefaultChipConfig returns the reference chip: 4096 arrays of
// 1024×1024 bits (a 4 Gbit part) in banks of 64 with multicast
// broadcast, and the default device parameters.
func DefaultChipConfig() ChipConfig {
	return ChipConfig{
		ArrayRows:     1024,
		ArrayCols:     1024,
		NumArrays:     4096,
		ArraysPerBank: 64,
		Multicast:     true,
		Device:        DefaultDeviceParams(),
	}
}

// Validate checks the chip configuration.
func (c ChipConfig) Validate() error {
	if c.ArrayRows <= 0 {
		return fmt.Errorf("pim: ArrayRows %d must be positive", c.ArrayRows)
	}
	if c.ArrayCols <= 0 || c.ArrayCols%64 != 0 {
		return fmt.Errorf("pim: ArrayCols %d must be a positive multiple of 64", c.ArrayCols)
	}
	if c.NumArrays <= 0 {
		return fmt.Errorf("pim: NumArrays %d must be positive", c.NumArrays)
	}
	if c.ArraysPerBank < 0 {
		return fmt.Errorf("pim: ArraysPerBank %d must be non-negative", c.ArraysPerBank)
	}
	return c.Device.Validate()
}

// arraysPerBank returns the effective bank width.
func (c ChipConfig) arraysPerBank() int {
	if c.ArraysPerBank <= 0 {
		return 64
	}
	return c.ArraysPerBank
}

// MemoryBits returns the chip's total storage in bits.
func (c ChipConfig) MemoryBits() int64 {
	return int64(c.ArrayRows) * int64(c.ArrayCols) * int64(c.NumArrays)
}

// Engine executes BioHD search in simulated memory: a frozen sealed
// library's bucket hypervectors are programmed into crossbar arrays, and
// queries are broadcast and scored with in-array XNOR + popcount, all
// arrays in parallel.
type Engine struct {
	cfg           ChipConfig
	lib           *core.Library
	buckets       int     // buckets programmed into the arrays
	tau           float64 // the library's threshold when they were programmed
	arrays        []*Array
	rowsPerBucket int
	bucketsPerArr int
	arraysUsed    int
	padBits       int // zero-padding bits in the final row chunk
	buildCost     Cost
}

// NewEngine maps lib onto a chip with the given configuration and
// programs the arrays (charging the build cost). The library must be
// frozen and fit on the chip.
func NewEngine(cfg ChipConfig, lib *core.Library) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	info := lib.Describe()
	if !info.Frozen {
		return nil, fmt.Errorf("pim: library must be frozen before mapping")
	}
	d := lib.Params().Dim
	rowsPer := (d + cfg.ArrayCols - 1) / cfg.ArrayCols
	if rowsPer > cfg.ArrayRows {
		return nil, fmt.Errorf("pim: one bucket needs %d rows, array has %d", rowsPer, cfg.ArrayRows)
	}
	perArr := cfg.ArrayRows / rowsPer
	used := (info.Buckets + perArr - 1) / perArr
	if used > cfg.NumArrays {
		return nil, fmt.Errorf("pim: library needs %d arrays, chip has %d", used, cfg.NumArrays)
	}
	e := &Engine{
		cfg:           cfg,
		lib:           lib,
		buckets:       info.Buckets,
		tau:           info.Threshold,
		rowsPerBucket: rowsPer,
		bucketsPerArr: perArr,
		arraysUsed:    used,
		padBits:       rowsPer*cfg.ArrayCols - d,
	}
	for i := 0; i < used; i++ {
		arr, err := NewArray(cfg.ArrayRows, cfg.ArrayCols, cfg.Device)
		if err != nil {
			return nil, err
		}
		e.arrays = append(e.arrays, arr)
	}
	e.buildCost = e.program()
	return e, nil
}

// program writes every bucket hypervector into its array rows and
// returns the (parallel-time) build cost.
func (e *Engine) program() Cost {
	before := e.snapshot()
	wordsPerRow := e.cfg.ArrayCols / 64
	for b := 0; b < e.buckets; b++ {
		arr := e.arrays[b/e.bucketsPerArr]
		slot := b % e.bucketsPerArr
		words := e.lib.BucketVector(b).Words()
		for r := 0; r < e.rowsPerBucket; r++ {
			chunk := make([]uint64, wordsPerRow)
			copy(chunk, sliceClamp(words, r*wordsPerRow, wordsPerRow))
			arr.LoadRowBuf(chunk)
			arr.WriteRow(slot*e.rowsPerBucket + r)
		}
	}
	return e.delta(before)
}

// sliceClamp returns up to n words of s starting at off, without
// overrunning.
func sliceClamp(s []uint64, off, n int) []uint64 {
	if off >= len(s) {
		return nil
	}
	end := off + n
	if end > len(s) {
		end = len(s)
	}
	return s[off:end]
}

// ArraysUsed returns how many arrays the mapping occupies.
func (e *Engine) ArraysUsed() int { return e.arraysUsed }

// RowsPerBucket returns how many array rows one bucket occupies.
func (e *Engine) RowsPerBucket() int { return e.rowsPerBucket }

// BuildCost returns the one-time cost of programming the library.
func (e *Engine) BuildCost() Cost { return e.buildCost }

// MappingReport summarizes how the library occupies the chip.
type MappingReport struct {
	ArraysUsed     int
	ArraysTotal    int
	RowsPerBucket  int
	BucketsPerArr  int
	UsedBits       int64   // bits actually storing bucket rows
	ChipBits       int64   // total chip capacity
	RowOccupancy   float64 // fraction of rows in used arrays holding data
	ChipOccupancy  float64 // UsedBits / ChipBits
	BroadcastWidth int     // bank width sharing one broadcast bus
}

// Report returns the mapping summary for diagnostics and the CLI.
func (e *Engine) Report() MappingReport {
	usedRows := int64(e.buckets) * int64(e.rowsPerBucket)
	used := usedRows * int64(e.cfg.ArrayCols)
	chip := e.cfg.MemoryBits()
	var rowOcc float64
	if e.arraysUsed > 0 {
		rowOcc = float64(usedRows) / float64(int64(e.arraysUsed)*int64(e.cfg.ArrayRows))
	}
	return MappingReport{
		ArraysUsed:     e.arraysUsed,
		ArraysTotal:    e.cfg.NumArrays,
		RowsPerBucket:  e.rowsPerBucket,
		BucketsPerArr:  e.bucketsPerArr,
		UsedBits:       used,
		ChipBits:       chip,
		RowOccupancy:   rowOcc,
		ChipOccupancy:  float64(used) / float64(chip),
		BroadcastWidth: e.cfg.arraysPerBank(),
	}
}

// snapshot captures every array's ledger state.
func (e *Engine) snapshot() []Ledger {
	out := make([]Ledger, len(e.arrays))
	for i, a := range e.arrays {
		out[i] = *a.Ledger()
	}
	return out
}

// delta aggregates the cost incurred since a snapshot: arrays run in
// parallel, so latency is the maximum per-array busy-time delta and
// energy the sum.
func (e *Engine) delta(before []Ledger) Cost {
	var c Cost
	for i, a := range e.arrays {
		l := a.Ledger()
		busy := l.BusyNs() - before[i].BusyNs()
		if busy > c.LatencyNs {
			c.LatencyNs = busy
		}
		c.EnergyPj += l.EnergyPj() - before[i].pj
		for k := 0; k < int(numOpKinds); k++ {
			c.Counts[k] += l.Count(OpKind(k)) - before[i].counts[k]
		}
	}
	return c
}

// Search scores the encoded query against every bucket in memory and
// returns the candidates above the library's operating threshold,
// exactly as core.Library.Probe would, plus the simulated cost. Each
// array receives the query rows by broadcast and performs one fused
// XNOR+popcount per stored bucket row; the per-bucket score accumulates
// in the periphery and is thresholded there.
func (e *Engine) Search(hv *hdc.HV) ([]core.Candidate, Cost, error) {
	if hv.Dim() != e.lib.Params().Dim {
		return nil, Cost{}, fmt.Errorf("pim: query dimension %d != library %d",
			hv.Dim(), e.lib.Params().Dim)
	}
	before := e.snapshot()
	tau := e.tau
	wordsPerRow := e.cfg.ArrayCols / 64
	queryWords := hv.Words()

	var cands []core.Candidate
	for ai, arr := range e.arrays {
		firstBucket := ai * e.bucketsPerArr
		nBuckets := min(e.bucketsPerArr, e.buckets-firstBucket)
		scores := make([]int, nBuckets)
		// One pass per query row chunk: broadcast once, fuse over all
		// buckets resident in this array.
		for r := 0; r < e.rowsPerBucket; r++ {
			chunk := make([]uint64, wordsPerRow)
			copy(chunk, sliceClamp(queryWords, r*wordsPerRow, wordsPerRow))
			arr.LoadRowBuf(chunk)
			validBits := e.cfg.ArrayCols
			if r == e.rowsPerBucket-1 {
				validBits -= e.padBits
			}
			for b := 0; b < nBuckets; b++ {
				pc := arr.XnorPopcount(b*e.rowsPerBucket + r)
				// Padding columns are zero in both operands; XNOR reads
				// them as matches, so discount them before converting
				// popcount to a bipolar dot contribution.
				pcValid := pc - (e.cfg.ArrayCols - validBits)
				scores[b] += 2*pcValid - validBits
			}
		}
		for b := 0; b < nBuckets; b++ {
			arr.Compare()
			if s := float64(scores[b]); s >= tau {
				cands = append(cands, core.Candidate{Bucket: firstBucket + b, Score: s})
			}
		}
	}
	cost := e.delta(before)
	cost.LatencyNs += e.busPenaltyNs()
	return cands, cost, nil
}

// busPenaltyNs models broadcast-bus contention: without multicast, the
// bank bus delivers the query's rows to each of its arrays in turn, so
// the busiest bank serializes (arraysInBank−1) extra row broadcasts per
// query (the first delivery is already in the per-array ledgers).
func (e *Engine) busPenaltyNs() float64 {
	if e.cfg.Multicast {
		return 0
	}
	perBank := e.cfg.arraysPerBank()
	busiest := min(perBank, e.arraysUsed)
	if busiest <= 1 {
		return 0
	}
	return float64(busiest-1) * float64(e.rowsPerBucket) * e.cfg.Device.BroadcastNs
}

// EncodeCost returns the simulated in-memory cost of encoding one query
// window of w bases: the base hypervectors are read from a dedicated
// item-memory region (one row read each), combined with w−1 in-array
// XNOR steps (exact chain) or w accumulate steps (approximate bundle,
// charged at popcount-accumulator cost), with one row-buffer shift per
// position for ρ.
func (e *Engine) EncodeCost(approx bool, w int) Cost {
	l := NewLedger(e.cfg.Device)
	perRow := e.rowsPerBucket
	l.Charge(OpRowRead, w*perRow)
	l.Charge(OpShift, (w-1)*perRow)
	if approx {
		l.Charge(OpPopcount, w*perRow) // counter accumulate per row chunk
		l.Charge(OpRowWrite, perRow)   // seal the bundled window
	} else {
		l.Charge(OpXnor, (w-1)*perRow)
	}
	return l.Cost()
}

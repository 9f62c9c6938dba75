// Package pim simulates BioHD's processing-in-memory architecture: a
// hierarchy of crossbar memory arrays whose peripheries are minimally
// extended with row-parallel XNOR, popcount and shift circuits — the
// three primitives all BioHD operations reduce to.
//
// The simulator is functional *and* cost-accounting: arrays actually
// store bits and execute operations (so PIM search results are checked
// bit-exact against the software engine), while every operation charges
// a latency/energy ledger derived from device parameters. Arrays operate
// in parallel; chip-level latency is the maximum busy time across
// arrays plus broadcast costs, and chip-level energy is the sum.
package pim

import "fmt"

// DeviceParams are per-operation latencies (ns) and energies (pJ) for
// one crossbar array row operation. The defaults are representative
// 28 nm ReRAM-crossbar figures in the range reported by the PIM
// literature the paper builds on; the sensitivity experiment (F8) sweeps
// the geometry, and absolute numbers only set the scale of the
// speedup/energy ratios, not their shape.
type DeviceParams struct {
	RowReadNs   float64 // activate + sense one row
	RowWriteNs  float64 // program one row
	XnorNs      float64 // in-array bitwise XNOR of a row against the row buffer
	PopcountNs  float64 // peripheral popcount of one row into the accumulator
	ShiftNs     float64 // one-step circular shift of the row buffer
	BroadcastNs float64 // deliver one row of data to an array over the bus
	RowReadPj   float64
	RowWritePj  float64
	XnorPj      float64
	PopcountPj  float64
	ShiftPj     float64
	BroadcastPj float64
	CompareNs   float64 // threshold comparison of one accumulated score
	ComparePj   float64
}

// DefaultDeviceParams returns the reference device configuration.
func DefaultDeviceParams() DeviceParams {
	return DeviceParams{
		RowReadNs:   2.9,
		RowWriteNs:  20.3,
		XnorNs:      1.5,
		PopcountNs:  4.2,
		ShiftNs:     0.6,
		BroadcastNs: 1.1,
		CompareNs:   0.5,
		RowReadPj:   1.1,
		RowWritePj:  51.2,
		XnorPj:      0.9,
		PopcountPj:  1.9,
		ShiftPj:     0.2,
		BroadcastPj: 1.4,
		ComparePj:   0.05,
	}
}

// Validate checks that all parameters are positive.
func (p DeviceParams) Validate() error {
	for name, v := range map[string]float64{
		"RowReadNs": p.RowReadNs, "RowWriteNs": p.RowWriteNs,
		"XnorNs": p.XnorNs, "PopcountNs": p.PopcountNs,
		"ShiftNs": p.ShiftNs, "BroadcastNs": p.BroadcastNs,
		"CompareNs": p.CompareNs,
		"RowReadPj": p.RowReadPj, "RowWritePj": p.RowWritePj,
		"XnorPj": p.XnorPj, "PopcountPj": p.PopcountPj,
		"ShiftPj": p.ShiftPj, "BroadcastPj": p.BroadcastPj,
		"ComparePj": p.ComparePj,
	} {
		if v <= 0 {
			return fmt.Errorf("pim: device parameter %s = %v must be positive", name, v)
		}
	}
	return nil
}

// OpKind enumerates the accountable operations.
type OpKind int

// Accountable operation kinds.
const (
	OpRowRead OpKind = iota
	OpRowWrite
	OpXnor
	OpPopcount
	OpShift
	OpBroadcast
	OpCompare
	numOpKinds
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpRowRead:
		return "row-read"
	case OpRowWrite:
		return "row-write"
	case OpXnor:
		return "xnor"
	case OpPopcount:
		return "popcount"
	case OpShift:
		return "shift"
	case OpBroadcast:
		return "broadcast"
	case OpCompare:
		return "compare"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// opCost returns (ns, pJ) for one operation of kind k.
func (p DeviceParams) opCost(k OpKind) (float64, float64) {
	switch k {
	case OpRowRead:
		return p.RowReadNs, p.RowReadPj
	case OpRowWrite:
		return p.RowWriteNs, p.RowWritePj
	case OpXnor:
		return p.XnorNs, p.XnorPj
	case OpPopcount:
		return p.PopcountNs, p.PopcountPj
	case OpShift:
		return p.ShiftNs, p.ShiftPj
	case OpBroadcast:
		return p.BroadcastNs, p.BroadcastPj
	case OpCompare:
		return p.CompareNs, p.ComparePj
	default:
		panic(fmt.Sprintf("pim: unknown op kind %d", int(k)))
	}
}

// Ledger accumulates operation counts and their time/energy for one
// array (or one logical actor). Latency is the actor's serial busy time;
// parallel actors' ledgers are combined by Chip (max time, summed
// energy).
type Ledger struct {
	params DeviceParams
	counts [numOpKinds]int64
	busyNs float64
	pj     float64
}

// NewLedger returns a ledger charging the given device parameters.
func NewLedger(params DeviceParams) *Ledger {
	return &Ledger{params: params}
}

// Charge records n operations of kind k.
func (l *Ledger) Charge(k OpKind, n int) {
	if n < 0 {
		panic(fmt.Sprintf("pim: negative charge %d", n))
	}
	ns, pj := l.params.opCost(k)
	l.counts[k] += int64(n)
	l.busyNs += ns * float64(n)
	l.pj += pj * float64(n)
}

// Count returns the number of operations of kind k recorded.
func (l *Ledger) Count(k OpKind) int64 { return l.counts[k] }

// BusyNs returns the serial busy time in nanoseconds.
func (l *Ledger) BusyNs() float64 { return l.busyNs }

// EnergyPj returns the accumulated energy in picojoules.
func (l *Ledger) EnergyPj() float64 { return l.pj }

// Cost returns what the ledger has recorded as a Cost: its busy time,
// energy and per-op counts.
func (l *Ledger) Cost() Cost {
	return Cost{LatencyNs: l.busyNs, EnergyPj: l.pj, Counts: l.counts}
}

// Cost is an aggregated latency/energy result with a per-op breakdown.
type Cost struct {
	LatencyNs float64
	EnergyPj  float64
	Counts    [numOpKinds]int64
}

// Add accumulates another cost serially (latencies add).
func (c *Cost) Add(o Cost) {
	c.LatencyNs += o.LatencyNs
	c.EnergyPj += o.EnergyPj
	for i := range c.Counts {
		c.Counts[i] += o.Counts[i]
	}
}

// LatencyMs returns the latency in milliseconds.
func (c Cost) LatencyMs() float64 { return c.LatencyNs * 1e-6 }

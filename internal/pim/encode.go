package pim

import (
	"fmt"

	"repro/internal/genome"
	"repro/internal/hdc"
)

// EncodeInMemory executes the exact (binding-chain) window encoding with
// the array primitives themselves — row reads from the item-memory
// region, in-array XNOR, and row-buffer shifts — and returns the
// resulting hypervector together with its cost. The result is
// bit-identical to the software encoder's, which the tests assert; this
// is the functional counterpart of the analytic EncodeCost.
//
// The Horner factorization ⊙ᵢ ρ^i(B[sᵢ]) = B[s₀] ⊙ ρ(B[s₁] ⊙ ρ(···))
// needs exactly one single-step shift per position instead of ρ^i
// rotations, which is what makes the encoding PIM-friendly: shift-by-one
// is a wire pattern in the row buffer.
func (e *Engine) EncodeInMemory(seq *genome.Sequence, start int) (*hdc.HV, Cost, error) {
	if e.lib.Params().Approx {
		return nil, Cost{}, fmt.Errorf("pim: EncodeInMemory implements the exact chain; approximate bundling uses counters (see EncodeCost)")
	}
	w := e.lib.Params().Window
	if start < 0 || start+w > seq.Len() {
		return nil, Cost{}, fmt.Errorf("pim: window [%d,%d) overruns sequence length %d",
			start, start+w, seq.Len())
	}
	d := e.lib.Params().Dim
	ledger := NewLedger(e.cfg.Device)
	enc := e.lib.Encoder()

	// Working D-bit vector, conceptually spread over rowsPerBucket row
	// buffers.
	work := hdc.NewHV(d)
	scratch := hdc.NewHV(d)
	for i := w - 1; i >= 0; i-- {
		base := enc.BaseHV(seq.At(start + i))
		// Fetch the base hypervector rows from the item-memory region.
		ledger.Charge(OpRowRead, e.rowsPerBucket)
		if i == w-1 {
			copy(work.Words(), base.Words())
			continue
		}
		// Shift the working vector by one (cross-row carry in the
		// periphery), then XNOR with the fetched base rows.
		scratch.Permute(work, 1)
		work, scratch = scratch, work
		ledger.Charge(OpShift, e.rowsPerBucket)
		work.Bind(work, base)
		ledger.Charge(OpXnor, e.rowsPerBucket)
	}
	return work, ledger.Cost(), nil
}

// EncodeApproxInMemory executes the approximate (positional-bundle)
// window encoding with the periphery's counter accumulator: base
// hypervector rows are fetched from the item-memory region, the counter
// array accumulates each (charged at popcount-accumulator cost), the
// logical rotation is a counter-pointer shift, and the final majority
// seal writes the result rows. Bit-identical to the software encoder.
func (e *Engine) EncodeApproxInMemory(seq *genome.Sequence, start int) (*hdc.HV, Cost, error) {
	if !e.lib.Params().Approx {
		return nil, Cost{}, fmt.Errorf("pim: EncodeApproxInMemory needs an approximate library (see EncodeInMemory for the exact chain)")
	}
	w := e.lib.Params().Window
	if start < 0 || start+w > seq.Len() {
		return nil, Cost{}, fmt.Errorf("pim: window [%d,%d) overruns sequence length %d",
			start, start+w, seq.Len())
	}
	d := e.lib.Params().Dim
	ledger := NewLedger(e.cfg.Device)
	enc := e.lib.Encoder()

	// Periphery counter array, functionally identical to hdc.Acc, plus a
	// scratch row register for the rotated base vector.
	acc := hdc.NewAcc(d)
	rotated := hdc.NewHV(d)
	for i := 0; i < w; i++ {
		base := enc.BaseHV(seq.At(start + i))
		ledger.Charge(OpRowRead, e.rowsPerBucket) // fetch item-memory rows
		target := base
		if i != 0 {
			rotated.Permute(base, i)
			// ρ^i is realized as i single-step shifts amortized to one
			// pointer-offset update in the counter periphery.
			ledger.Charge(OpShift, e.rowsPerBucket)
			target = rotated
		}
		acc.Add(target)
		ledger.Charge(OpPopcount, e.rowsPerBucket) // counter accumulate
	}
	out := enc.SealLogical(acc, 0)
	ledger.Charge(OpRowWrite, e.rowsPerBucket) // write the sealed rows
	return out, ledger.Cost(), nil
}

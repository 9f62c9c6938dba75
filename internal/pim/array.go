package pim

import (
	"fmt"
	"math/bits"
)

// Array is one crossbar memory array of Rows × Cols bits with a
// minimally modified periphery: a row buffer, a row-parallel XNOR unit
// and a popcount accumulator (the row-buffer shifter the encoders use is
// modelled by EncodeInMemory). All operations are functional (bits
// really move) and charged to the array's ledger.
type Array struct {
	rows     int
	wordsPer int // 64-bit words per row
	data     []uint64
	rowBuf   []uint64
	ledger   *Ledger
}

// NewArray creates a zeroed array. Cols must be a positive multiple of
// 64 (the row buffer and datapath are word-granular); Rows must be
// positive.
func NewArray(rows, cols int, params DeviceParams) (*Array, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("pim: rows %d must be positive", rows)
	}
	if cols <= 0 || cols%64 != 0 {
		return nil, fmt.Errorf("pim: cols %d must be a positive multiple of 64", cols)
	}
	wp := cols / 64
	return &Array{
		rows:     rows,
		wordsPer: wp,
		data:     make([]uint64, rows*wp),
		rowBuf:   make([]uint64, wp),
		ledger:   NewLedger(params),
	}, nil
}

// Ledger exposes the array's cost ledger.
func (a *Array) Ledger() *Ledger { return a.ledger }

func (a *Array) rowSlice(r int) []uint64 {
	if r < 0 || r >= a.rows {
		panic(fmt.Sprintf("pim: row %d out of range [0,%d)", r, a.rows))
	}
	return a.data[r*a.wordsPer : (r+1)*a.wordsPer]
}

// LoadRowBuf fills the row buffer from external data (a broadcast over
// the bus). words must have exactly Cols/64 entries.
func (a *Array) LoadRowBuf(words []uint64) {
	if len(words) != a.wordsPer {
		panic(fmt.Sprintf("pim: row buffer width %d words, got %d", a.wordsPer, len(words)))
	}
	copy(a.rowBuf, words)
	a.ledger.Charge(OpBroadcast, 1)
}

// WriteRow programs row r from the row buffer.
func (a *Array) WriteRow(r int) {
	copy(a.rowSlice(r), a.rowBuf)
	a.ledger.Charge(OpRowWrite, 1)
}

// XnorPopcount performs the fused BioHD search primitive on row r: the
// stored row is XNORed with the row buffer in place in the periphery and
// the popcount of the result is returned. The stored row and the row
// buffer are unmodified.
func (a *Array) XnorPopcount(r int) int {
	row := a.rowSlice(r)
	pc := 0
	for i, w := range row {
		pc += bits.OnesCount64(^(w ^ a.rowBuf[i]))
	}
	a.ledger.Charge(OpXnor, 1)
	a.ledger.Charge(OpPopcount, 1)
	return pc
}

// Compare charges one threshold comparison (done in the periphery after
// popcount accumulation).
func (a *Array) Compare() {
	a.ledger.Charge(OpCompare, 1)
}

// Package encoding maps genome sequences to hypervectors — the
// "HDC memorization" step of BioHD.
//
// # Window encodings
//
// BioHD slices a reference genome into fixed-length windows and encodes
// each window into one hypervector. Two encodings are provided, matching
// the paper's exact and approximate search modes:
//
//   - Exact (binding chain): E(s) = ⊙_{i<w} ρ^i(B[s_i]). A pure bind
//     product is quasi-orthogonal to the encoding of every other window
//     content, so membership of the *exact* pattern can be tested with a
//     single dot product. One mismatching base randomizes the encoding —
//     maximal discrimination, no tolerance.
//
//   - Approximate (positional bundle): A(s) = sign(Σ_{i<w} ρ^i(B[s_i])).
//     The similarity of two bundled windows degrades linearly in the
//     number of agreeing positions, so mutated queries remain detectably
//     similar — graceful degradation, mutation tolerance.
//
// # One table, two folds
//
// Both encoders are a lane-wise fold over the same w rows of one
// flat table of pre-rotated base vectors (Encoder.rows, row 4i + s_i for
// position i): the bundle is the rows' majority and the binding chain
// their parity — w − 1 XNORs are the XOR of the rows, complemented when
// w is even. The folds are internal/bitvec's MajorityRows and XorRows
// (bit-sliced carry-save planes; AVX-512, AVX2 and portable tiers); an
// encoder here writes the w row indices and makes one call.
//
// # The exact slide
//
// A query encodes every window directly. A stride-1 build of an exact
// library encodes each window of a reference, and neighbouring windows
// share w − 1 bases, so it folds the first and steps to each next one
// with SlideExact: the leaving base's row and the entering base's row
// one rotation past the end are XORed in, and the sum rotates down by
// one bit — one pass over two rows of the same table, in place
// (bitvec.SlideRows), bit for bit the fold of the next window (DESIGN
// §8.1). The approximate bundle has no such step: a majority cannot drop
// a row without counters.
package encoding

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/genome"
	"repro/internal/hdc"
	"repro/internal/rng"
)

// Mode selects the window encoding.
type Mode int

// Encoding modes.
const (
	// ModeExact is the binding-chain encoding for exact matching.
	ModeExact Mode = iota
	// ModeApprox is the positional-bundle encoding for approximate
	// matching.
	ModeApprox
)

// Config parameterizes an Encoder.
type Config struct {
	// Dim is the hypervector dimensionality; a positive multiple of 64.
	Dim int
	// Window is the number of bases encoded per window hypervector.
	Window int
	// Seed determines the base item memory; encoders built from equal
	// (Dim, Seed) agree bit-for-bit.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Dim <= 0 || c.Dim%64 != 0 {
		return fmt.Errorf("encoding: Dim %d must be a positive multiple of 64", c.Dim)
	}
	if c.Window <= 0 {
		return fmt.Errorf("encoding: Window %d must be positive", c.Window)
	}
	if c.Window >= c.Dim {
		// Rotations must stay injective over the window span.
		return fmt.Errorf("encoding: Window %d must be smaller than Dim %d", c.Window, c.Dim)
	}
	return nil
}

// Encoder encodes genome windows into hypervectors. It is safe for
// concurrent use once constructed (all state is read-only).
type Encoder struct {
	cfg Config
	// rot[b][i] is ρ^i(B[b]) for i ∈ [0, Window], as hypervector views
	// of rows: what BaseHV hands out and the counter oracle adds up. The
	// encoders read rows.
	rot [genome.AlphabetSize][]*hdc.HV
	// rows is the storage behind rot, flat for the row-fold kernels both
	// encoders call: ρ^i(B[b]) occupies words [(4i+b)·D/64,
	// (4i+b+1)·D/64).
	rows []uint64
	// tie packs tieBit for every dimension: bit j of the table is the
	// value a sealed bundle takes where its counter is exactly zero.
	tie []uint64
}

// New constructs an Encoder from cfg.
func New(cfg Config) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nw := cfg.Dim / 64
	e := &Encoder{
		cfg:  cfg,
		rows: make([]uint64, (cfg.Window+1)*genome.AlphabetSize*nw),
		tie:  make([]uint64, nw),
	}
	// The base vectors B[0..3] are drawn from one stream seeded by Seed,
	// one base after another.
	src := rng.New(cfg.Seed)
	for b := 0; b < genome.AlphabetSize; b++ {
		e.rot[b] = make([]*hdc.HV, cfg.Window+1)
		for i := 0; i <= cfg.Window; i++ {
			r := i*genome.AlphabetSize + b
			h := hdc.HVFromArenaRow(e.rows[r*nw:(r+1)*nw:(r+1)*nw], cfg.Dim)
			if i == 0 {
				copy(h.Words(), hdc.RandomHV(cfg.Dim, src).Words())
			} else {
				h.Permute(e.rot[b][i-1], 1)
			}
			e.rot[b][i] = h
		}
	}
	seed := e.tieSeed()
	for j := 0; j < cfg.Dim; j++ {
		if tieBit(seed, j) {
			e.tie[j/64] |= 1 << uint(j%64)
		}
	}
	return e, nil
}

// BaseHV returns the random base hypervector B[b] (shared; do not
// mutate).
func (e *Encoder) BaseHV(b genome.Base) *hdc.HV { return e.rot[b][0] }

func (e *Encoder) checkWindow(seq *genome.Sequence, start int) {
	if start < 0 || start+e.cfg.Window > seq.Len() {
		panic(fmt.Sprintf("encoding: window [%d,%d) overruns sequence length %d",
			start, start+e.cfg.Window, seq.Len()))
	}
}

func (e *Encoder) checkDim(dst *hdc.HV) {
	if dst.Dim() != e.cfg.Dim {
		panic(fmt.Sprintf("encoding: destination dimension %d != encoder %d", dst.Dim(), e.cfg.Dim))
	}
}

// exactChunk is how many row indices the exact encoder hands
// bitvec.XorRows per call, and approxStackRows the largest Window whose
// indices the allocating EncodeWindowApprox keeps on its stack.
const (
	exactChunk      = 64
	approxStackRows = 256
)

// rowIndices writes the table rows of window positions from,
// from+1, … of the window at start into idx: position j holding base s
// is row 4j + s.
func rowIndices(idx []int32, seq *genome.Sequence, start, from int) {
	for k := range idx {
		j := from + k
		idx[k] = int32(j*genome.AlphabetSize + int(seq.At(start+j)))
	}
}

// EncodeWindowExact returns the binding-chain encoding of the window of
// seq starting at start. It panics if the window overruns the sequence.
func (e *Encoder) EncodeWindowExact(seq *genome.Sequence, start int) *hdc.HV {
	out := hdc.NewHV(e.cfg.Dim)
	e.EncodeWindowExactInto(out, seq, start)
	return out
}

// EncodeWindowExactInto stores the binding-chain encoding of the window
// of seq starting at start into dst, reusing dst's storage — the
// allocation-free variant for query hot paths. It panics if the window
// overruns the sequence or dst has the wrong dimension.
//
// The chain ⊙_i ρ^i(B[s_i]) is Window − 1 XNORs, that is the XOR of the
// Window rows complemented once per XNOR: dst starts as all-ones for an
// even Window (an odd number of complements) and as zero otherwise, and
// the rows are folded in by bitvec.XorRows, exactChunk indices at a time
// so that no Window needs scratch from the caller.
//
//biohd:hotpath
func (e *Encoder) EncodeWindowExactInto(dst *hdc.HV, seq *genome.Sequence, start int) {
	e.checkWindow(seq, start)
	e.checkDim(dst)
	w := e.cfg.Window
	words := dst.Words()
	var fill uint64
	if w%2 == 0 {
		fill = ^uint64(0)
	}
	for c := range words {
		words[c] = fill
	}
	var row [exactChunk]int32
	for from := 0; from < w; from += exactChunk {
		idx := row[:min(exactChunk, w-from)]
		rowIndices(idx, seq, start, from)
		bitvec.XorRows(words, e.rows, idx, len(words))
	}
}

// SlideExact steps dst from the binding-chain encoding of the window of
// seq at start to that of the window at start+1, in place:
//
//	E(s+1) = ρ⁻¹(E(s) ⊕ ρ⁰(B[s_start]) ⊕ ρ^Window(B[s_start+Window]))
//
// XORing the leaving base's row cancels it from the chain, XORing the
// entering base's row at rotation Window adds it one past the end, and
// the rotation by −1 moves every position down by one. The constant the
// chain is complemented by (all-ones for an even Window) is
// rotation-invariant, so the step is exact for every Window: one
// bitvec.SlideRows, two table rows and one pass over dst, against the
// Window rows EncodeWindowExactInto folds. dst must hold the encoding of
// the window at start; the result is bit for bit EncodeWindowExactInto's
// at start+1 (TestSlideExactMatchesFold). It panics if either window
// overruns the sequence or dst has the wrong dimension.
//
//biohd:hotpath
func (e *Encoder) SlideExact(dst *hdc.HV, seq *genome.Sequence, start int) {
	e.checkWindow(seq, start)
	e.checkWindow(seq, start+1)
	e.checkDim(dst)
	w := e.cfg.Window
	out := dst.Words()
	in := int32(w*genome.AlphabetSize + int(seq.At(start+w)))
	bitvec.SlideRows(out, e.rows, int32(seq.At(start)), in, len(out))
}

// EncodeWindowApprox returns the sealed positional-bundle encoding of the
// window of seq starting at start. Only the result is allocated, for
// every Window up to approxStackRows.
func (e *Encoder) EncodeWindowApprox(seq *genome.Sequence, start int) *hdc.HV {
	e.checkWindow(seq, start)
	out := hdc.NewHV(e.cfg.Dim)
	var buf [approxStackRows]int32
	row := buf[:]
	if e.cfg.Window > len(row) {
		row = make([]int32, e.cfg.Window)
	}
	e.bundleWindow(out.Words(), row[:e.cfg.Window], seq, start)
	return out
}

// EncodeWindowApproxInto stores the sealed positional-bundle encoding of
// the window at start into dst — the allocation-free variant for query
// hot paths. acc lends its counter storage as scratch: its prior
// contents are discarded and what it holds afterwards is unspecified.
// It panics if the window overruns the sequence or dst/acc have the
// wrong dimension.
//
//biohd:hotpath
func (e *Encoder) EncodeWindowApproxInto(dst *hdc.HV, acc *hdc.Acc, seq *genome.Sequence, start int) {
	e.checkWindow(seq, start)
	e.checkDim(dst)
	if acc.Dim() != e.cfg.Dim {
		panic(fmt.Sprintf("encoding: accumulator dimension %d != encoder %d", acc.Dim(), e.cfg.Dim))
	}
	// Window < Dim, so the Dim counters always hold the Window row indices.
	e.bundleWindow(dst.Words(), acc.Counts()[:e.cfg.Window], seq, start)
}

// bundleWindow is the approximate encoder: out = sign of the sum of the
// window's Window rotated base rows, bit-identical to adding the rows
// into an hdc.Acc and sealing it with SealLogical, the counter oracle the
// tests hold it to. A lane's counter is 2·ones − Window, so the sign is the
// rows' majority and a zero counter (even Window only) is a tie, filled
// from the precomputed tie words — bitvec.MajorityRows, which never
// forms the counters. row is Window words of scratch for the row indices.
//
//biohd:hotpath
func (e *Encoder) bundleWindow(out []uint64, row []int32, seq *genome.Sequence, start int) {
	rowIndices(row, seq, start, 0)
	bitvec.MajorityRows(out, e.rows, row, len(out), e.tie, true)
}

// ApproxPrefix is the approximate encoder cut to the first words of
// every encoding: the majority fold over the table's rows cut to that
// width, bit for bit the prefix of EncodeWindowApproxInto's output
// (DESIGN §8.1).
type ApproxPrefix struct {
	e         *Encoder
	rows, tie []uint64 // the table's rows and tie words, cut
}

// ApproxPrefix returns the approximate encoder of the first words words
// of every encoding. It panics unless 0 < words ≤ Dim/64.
func (e *Encoder) ApproxPrefix(words int) *ApproxPrefix {
	nw := e.cfg.Dim / 64
	if words <= 0 || words > nw {
		panic(fmt.Sprintf("encoding: a prefix of %d words of %d-word encodings", words, nw))
	}
	p := &ApproxPrefix{e: e, rows: make([]uint64, len(e.rows)/nw*words), tie: e.tie[:words:words]}
	for r := 0; r < len(e.rows)/nw; r++ {
		copy(p.rows[r*words:(r+1)*words], e.rows[r*nw:])
	}
	return p
}

// EncodeInto is EncodeWindowApproxInto of the prefix, into dst of the
// prefix's width (it panics on another).
//
//biohd:hotpath
func (p *ApproxPrefix) EncodeInto(dst []uint64, acc *hdc.Acc, seq *genome.Sequence, start int) {
	p.e.checkWindow(seq, start)
	row := acc.Counts()[:p.e.cfg.Window]
	rowIndices(row, seq, start, 0)
	bitvec.MajorityRows(dst, p.rows, row, len(p.tie), p.tie, true)
}

// tieSeed derives the deterministic tie-break seed for sealed bundles
// from the item-memory seed, so all encodings under one encoder agree.
func (e *Encoder) tieSeed() uint64 { return e.cfg.Seed ^ 0xb10b1d_5ea1 }

// Encode returns the window encoding at start under the given mode.
func (e *Encoder) Encode(seq *genome.Sequence, start int, mode Mode) *hdc.HV {
	switch mode {
	case ModeExact:
		return e.EncodeWindowExact(seq, start)
	case ModeApprox:
		return e.EncodeWindowApprox(seq, start)
	default:
		panic(fmt.Sprintf("encoding: unknown mode %d", int(mode)))
	}
}

// SealLogical seals raw window counters into the window hypervector: the
// logical counter for dimension j lives at raw index (j + off) mod Dim.
// Counter ties are broken by a deterministic hash of the *logical*
// dimension index (tieBit), so a window seals identically at any offset.
func (e *Encoder) SealLogical(acc *hdc.Acc, off int) *hdc.HV {
	d := e.cfg.Dim
	out := hdc.NewHV(d)
	words, counts := out.Words(), acc.Counts()
	raw := off
	for j := 0; j < d; j += 64 {
		var pos, zero uint64
		for b := 0; b < 64; b++ {
			switch c := counts[raw]; {
			case c > 0:
				pos |= 1 << uint(b)
			case c == 0:
				zero |= 1 << uint(b)
			}
			raw++
			if raw == d {
				raw = 0
			}
		}
		words[j/64] = pos | zero&e.tie[j/64]
	}
	return out
}

// tieBit is a deterministic balanced bit derived from (seed, logical
// dimension index).
func tieBit(seed uint64, j int) bool {
	state := seed + uint64(j)*0x9e3779b97f4a7c15
	return rng.SplitMix64(&state)&1 == 1
}

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
// The exact chain slides incrementally: advancing the window by one base
// costs O(D/64) packed-word work instead of re-encoding the whole window,
// by the identity
//
//	E_{p+1} = ρ⁻¹(E_p ⊙ B[s_p]) ⊙ ρ^{w−1}(B[s_{p+w}])
//
// The bundle is always encoded directly, by a bit-sliced carry-save
// kernel over packed words (see bundleWindow): at w·D/64 word
// loads and ≈ 5 word operations per load it costs less than one
// counter-array slide step did, so there is no incremental bundle.
package encoding

import (
	"fmt"
	"math/bits"

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

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeApprox:
		return "approx"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

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
	im  *hdc.ItemMemory
	// rot[b][i] is ρ^i(B[b]) for i ∈ [0, Window]; precomputed because
	// both the direct encoders and the incremental slide consume
	// rotated base vectors constantly.
	rot [genome.AlphabetSize][]*hdc.HV
	// rows is the storage behind rot, flat for the approximate kernel:
	// ρ^i(B[b]) occupies words [(4i+b)·D/64, (4i+b+1)·D/64).
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
		im:   hdc.NewItemMemory(cfg.Dim, genome.AlphabetSize, cfg.Seed),
		rows: make([]uint64, (cfg.Window+1)*genome.AlphabetSize*nw),
		tie:  make([]uint64, nw),
	}
	for b := 0; b < genome.AlphabetSize; b++ {
		e.rot[b] = make([]*hdc.HV, cfg.Window+1)
		for i := 0; i <= cfg.Window; i++ {
			r := i*genome.AlphabetSize + b
			h := hdc.HVFromArenaRow(e.rows[r*nw:(r+1)*nw:(r+1)*nw], cfg.Dim)
			if i == 0 {
				h.CopyFrom(e.im.Get(b))
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

// Config returns the encoder's configuration.
func (e *Encoder) Config() Config { return e.cfg }

// Dim returns the hypervector dimensionality.
func (e *Encoder) Dim() int { return e.cfg.Dim }

// Window returns the window length in bases.
func (e *Encoder) Window() int { return e.cfg.Window }

// BaseHV returns the item-memory hypervector for base b (shared; do not
// mutate).
func (e *Encoder) BaseHV(b genome.Base) *hdc.HV { return e.im.Get(int(b)) }

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
//biohd:hotpath
func (e *Encoder) EncodeWindowExactInto(dst *hdc.HV, seq *genome.Sequence, start int) {
	e.checkWindow(seq, start)
	e.checkDim(dst)
	dst.CopyFrom(e.rot[seq.At(start)][0])
	for i := 1; i < e.cfg.Window; i++ {
		dst.Bind(dst, e.rot[seq.At(start+i)][i])
	}
}

// EncodeWindowApprox returns the sealed positional-bundle encoding of the
// window of seq starting at start.
func (e *Encoder) EncodeWindowApprox(seq *genome.Sequence, start int) *hdc.HV {
	e.checkWindow(seq, start)
	out := hdc.NewHV(e.cfg.Dim)
	e.bundleWindow(out.Words(), make([]int32, e.cfg.Window), seq, start)
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

// csa is a carry-save (full) adder over 64 independent bit lanes:
// a + b + c = sum + 2·carry in every lane.
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, a&b | u&c
}

// bundleWindow is the bit-sliced approximate encoder: out = sign of the
// sum of the window's Window rotated base rows, bit-identical to
// AccumulateWindow + SealLogical. It never forms the counters. For each
// word column it counts the one-bits of the Window rows in all 64 lanes
// at once, holding the count as bits.Len(Window) bit planes (plane k is
// bit k of the 64 lane counts): rows enter eight at a time through a
// tree of seven carry-save adders that leaves one carry word of weight
// 8, and that word ripples into planes 3 and up until no lane carries.
// A lane's counter is 2·ones − Window, so the sign is the constant
// compare ones > ⌊Window/2⌋, and a tie (even Window only) is ones ==
// Window/2, filled from the precomputed tie words. row is Window words
// of scratch for the row indices.
//
//biohd:hotpath
func (e *Encoder) bundleWindow(out []uint64, row []int32, seq *genome.Sequence, start int) {
	w, nw := e.cfg.Window, e.cfg.Dim/64
	for j := range row {
		row[j] = int32(j*genome.AlphabetSize + int(seq.At(start+j)))
	}
	rows := e.rows
	nPlanes := bits.Len(uint(w))
	half := uint(w / 2)
	var tieOn uint64 // odd windows cannot tie: ones == ⌊Window/2⌋ is a counter of −1
	if w%2 == 0 {
		tieOn = ^uint64(0)
	}
	// Planes 0–2 stay in registers while rows are added and are parked
	// in planes[:3] for the compare. A count never carries out of plane
	// nPlanes−1, and 64 planes cover every Window an int can hold.
	var planes [64]uint64
	high := planes[3:max(nPlanes, 3)]
	for c := 0; c < nw; c++ {
		var p0, p1, p2 uint64
		clear(high)
		j := 0
		for ; j+8 <= w; j += 8 {
			r := row[j : j+8 : j+8]
			s0, c0 := csa(p0, rows[int(r[0])*nw+c], rows[int(r[1])*nw+c])
			s1, c1 := csa(s0, rows[int(r[2])*nw+c], rows[int(r[3])*nw+c])
			s2, c2 := csa(s1, rows[int(r[4])*nw+c], rows[int(r[5])*nw+c])
			s3, c3 := csa(s2, rows[int(r[6])*nw+c], rows[int(r[7])*nw+c])
			t0, d0 := csa(p1, c0, c1)
			t1, d1 := csa(t0, c2, c3)
			var carry uint64
			p0, p1 = s3, t1
			p2, carry = csa(p2, d0, d1)
			for k := 0; carry != 0 && k < len(high); k++ {
				high[k], carry = high[k]^carry, high[k]&carry
			}
		}
		for ; j < w; j++ { // the Window mod 8 rows left over enter one by one
			carry := rows[int(row[j])*nw+c]
			p0, carry = p0^carry, p0&carry
			p1, carry = p1^carry, p1&carry
			p2, carry = p2^carry, p2&carry
			for k := 0; carry != 0 && k < len(high); k++ {
				high[k], carry = high[k]^carry, high[k]&carry
			}
		}
		planes[0], planes[1], planes[2] = p0, p1, p2
		// ones > half and ones == half, most significant plane first.
		gt, eq := uint64(0), ^uint64(0)
		for k := nPlanes - 1; k >= 0; k-- {
			if half>>uint(k)&1 == 0 {
				gt |= eq & planes[k]
				eq &^= planes[k]
			} else {
				eq &= planes[k]
			}
		}
		out[c] = gt | eq&e.tie[c]&tieOn
	}
}

// DecodeWindowApprox recovers the window content memorized in a sealed
// positional-bundle encoding by associative recall: position i decodes to
// the base whose rotated item vector ρ^i(B[b]) correlates most strongly
// with the bundle. The superposed other positions act as near-orthogonal
// noise, so with the dimensionalities BioHD operates at (D ≫ Window) the
// reconstruction is exact with overwhelming probability. Ties decode to
// the smallest base so the result is deterministic.
func (e *Encoder) DecodeWindowApprox(h *hdc.HV) (*genome.Sequence, error) {
	if h.Dim() != e.cfg.Dim {
		return nil, fmt.Errorf("encoding: decode dimension %d != encoder %d", h.Dim(), e.cfg.Dim)
	}
	out := genome.NewSequence(e.cfg.Window)
	for i := 0; i < e.cfg.Window; i++ {
		best, bestDot := genome.Base(0), h.Dot(e.rot[0][i])
		for b := 1; b < genome.AlphabetSize; b++ {
			if d := h.Dot(e.rot[b][i]); d > bestDot {
				best, bestDot = genome.Base(b), d
			}
		}
		out.Set(i, best)
	}
	return out, nil
}

// AccumulateWindow returns the raw (unsealed) positional-bundle counters
// for the window of seq starting at start — the counter formulation the
// bit-sliced kernel is tested against and internal/pim's cost model
// charges for.
func (e *Encoder) AccumulateWindow(seq *genome.Sequence, start int) *hdc.Acc {
	e.checkWindow(seq, start)
	acc := hdc.NewAcc(e.cfg.Dim)
	for i := 0; i < e.cfg.Window; i++ {
		acc.Add(e.rot[seq.At(start+i)][i])
	}
	return acc
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

// SlideExact calls fn with (start, encoding) for every window of seq at
// the given stride, reusing an incrementally maintained binding chain.
// The hypervector passed to fn is reused across calls; fn must Clone it
// to retain it. fn returning false stops the slide.
func (e *Encoder) SlideExact(seq *genome.Sequence, stride int, fn func(start int, hv *hdc.HV) bool) {
	if stride <= 0 {
		panic(fmt.Sprintf("encoding: stride %d must be positive", stride))
	}
	w := e.cfg.Window
	if seq.Len() < w {
		return
	}
	cur := e.EncodeWindowExact(seq, 0)
	scratch := hdc.NewHV(e.cfg.Dim)
	pos := 0
	for {
		if pos%stride == 0 {
			if !fn(pos, cur) {
				return
			}
		}
		if pos+w >= seq.Len() {
			return
		}
		// E_{p+1} = ρ⁻¹(E_p ⊙ B[s_p]) ⊙ ρ^{w−1}(B[s_{p+w}])
		cur.Bind(cur, e.rot[seq.At(pos)][0])
		scratch.Permute(cur, -1)
		cur, scratch = scratch, cur
		cur.Bind(cur, e.rot[seq.At(pos+w)][w-1])
		pos++
	}
}

// SealLogical seals raw window counters into the window hypervector: the
// logical counter for dimension j lives at raw index (j + off) mod Dim.
// Counter ties are broken by a deterministic hash of the *logical*
// dimension index (tieBit), so a window seals identically at any offset.
func (e *Encoder) SealLogical(acc *hdc.Acc, off int) *hdc.HV {
	out := hdc.NewHV(e.cfg.Dim)
	e.SealLogicalInto(out, acc, off)
	return out
}

// SealLogicalInto is SealLogical writing into dst instead of
// allocating. It panics if dst has the wrong dimension.
//
//biohd:hotpath
func (e *Encoder) SealLogicalInto(dst *hdc.HV, acc *hdc.Acc, off int) {
	d := e.cfg.Dim
	e.checkDim(dst)
	words := dst.Words()
	raw := off
	for j := 0; j < d; j += 64 {
		var pos, zero uint64
		for b := 0; b < 64; b++ {
			switch c := acc.Count(raw); {
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
}

// tieBit is a deterministic balanced bit derived from (seed, logical
// dimension index).
func tieBit(seed uint64, j int) bool {
	state := seed + uint64(j)*0x9e3779b97f4a7c15
	return rng.SplitMix64(&state)&1 == 1
}

// NumWindows returns how many stride-aligned windows fit in a sequence of
// length n: zero if n < Window, else ⌈(n−Window+1)/stride⌉.
func (e *Encoder) NumWindows(n, stride int) int {
	if n < e.cfg.Window {
		return 0
	}
	return (n-e.cfg.Window)/stride + 1
}

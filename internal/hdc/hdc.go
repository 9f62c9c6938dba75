// Package hdc implements the Hyper-Dimensional Computing core used by
// BioHD: high-dimensional binary hypervectors with bipolar semantics,
// the three HDC primitives (binding, permutation, bundling), and
// similarity measurement.
//
// # Representation
//
// A hypervector is a D-dimensional bipolar vector with components ±1,
// stored packed: bit 1 encodes +1, bit 0 encodes −1. Under this packing
// the bipolar element-wise product is XNOR and the dot product is
// D − 2·hamming, both word-parallel operations — which is exactly what
// makes the operations implementable row-parallel in a crossbar memory.
// An HV owns its D/64 words, the row format every kernel of
// internal/bitvec takes; Dot and Hamming score with its popcount kernel,
// and Permute rotates with its RotateWords.
//
// # Primitives
//
//   - Bind (XNOR): associates two hypervectors. Self-inverse, similarity
//     preserving in each operand, and dissimilar to both inputs.
//   - Permute (rotation ρ^k): encodes sequence position. A rotation is a
//     bijection that preserves pairwise similarity while making ρ^i(x)
//     quasi-orthogonal to ρ^j(x) for i ≠ j.
//   - Bundle (majority): superposes a set of hypervectors into one that
//     is similar to every member.
//
// # Bundling
//
// There are two bundlers, and they seal to the same bits. An Acc keeps a
// signed counter per dimension. It is the definition of the majority and
// its tie rule (Acc.Seal: the k-th tied dimension takes the k-th bit of a
// seeded stream), and so the oracle the fold is tested against, and the
// PIM periphery model's counters. Nothing scores against counters. A
// Rows keeps the members themselves and takes their lane-wise majority
// in one row fold (bitvec.MajorityRows) under a Ties, the same stream
// packed once and deposited on the tied lanes by bitvec.DepositBits: it
// bundles every bucket of every library, at a fraction
// of a microsecond a member instead of D counter updates. The tie rule
// lives here, beside both, and TestRowsMatchAcc / FuzzBundleRows hold the
// fold to the counters bit for bit.
package hdc

import (
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// HV is a D-dimensional bipolar hypervector in packed binary form: it
// owns D/64 words, component i in bit i%64 of word i/64.
// The zero value is unusable; construct with NewHV or RandomHV.
type HV struct {
	words []uint64
}

// NewHV returns the all −1 hypervector of dimension d (all bits zero).
// It panics if d is not a positive multiple of 64; BioHD dimensions are
// always word-aligned so that every kernel stays word-parallel.
func NewHV(d int) *HV {
	return &HV{words: bitvec.New(d)}
}

// RandomHV returns a uniformly random hypervector of dimension d drawn
// from src. Random hypervectors are the atomic symbols of an HDC system;
// any two independent draws are quasi-orthogonal with overwhelming
// probability (dot ≈ N(0, D)).
func RandomHV(d int, src *rng.Source) *HV {
	h := NewHV(d)
	for i := range h.words {
		h.words[i] = src.Uint64()
	}
	return h
}

// Dim returns the dimensionality D.
func (h *HV) Dim() int { return 64 * len(h.words) }

// Words exposes the packed words directly (shared, not copied) — the
// row format of the frozen-library arena kernels.
func (h *HV) Words() []uint64 { return h.words }

// Clone returns an independent copy.
func (h *HV) Clone() *HV { return &HV{words: slices.Clone(h.words)} }

// HVFromArenaRow wraps an arena row (exactly d/64 packed words) as a
// hypervector WITHOUT copying: the returned HV aliases words, so
// mutating either afterwards corrupts the other. It panics on a
// misaligned dimension or a row of the wrong length, so that a frozen
// arena row cannot silently carry trailing garbage.
func HVFromArenaRow(words []uint64, d int) *HV {
	if d <= 0 || d%64 != 0 || len(words) != d/64 {
		panic(fmt.Sprintf("hdc: arena row of %d words cannot view dimension %d", len(words), d))
	}
	return &HV{words: words}
}

func (h *HV) mustMatch(o *HV) {
	if len(h.words) != len(o.words) {
		panic(fmt.Sprintf("hdc: dimension mismatch %d vs %d", h.Dim(), o.Dim()))
	}
}

// Equal reports whether h and o are identical hypervectors.
func (h *HV) Equal(o *HV) bool {
	if len(h.words) != len(o.words) {
		return false
	}
	return slices.Equal(h.words, o.words)
}

// Bind stores the bipolar product a ⊙ b (packed XNOR: agreeing bits
// give 1) into h. Bind is self-inverse: Bind(Bind(a,b), b) == a.
func (h *HV) Bind(a, b *HV) {
	a.mustMatch(b)
	h.mustMatch(a)
	out, x, y := h.words, a.words[:len(h.words)], b.words[:len(h.words)]
	for i := range out {
		out[i] = ^(x[i] ^ y[i])
	}
}

// Permute stores ρ^k(a) into h — a circular rotation by k positions:
// bit i of a becomes bit (i+k) mod D of h, so a negative k rotates the
// other way. h must not alias a unless k ≡ 0 (mod D).
func (h *HV) Permute(a *HV, k int) {
	h.mustMatch(a)
	bitvec.RotateWords(h.words, a.words, k)
}

// Dot returns the bipolar dot product ⟨h, o⟩ ∈ [−D, D]: matches −
// mismatches = D − 2·Hamming. For independent random hypervectors the
// result is ≈ N(0, D); for equal vectors it is exactly D.
func (h *HV) Dot(o *HV) int { return h.Dim() - 2*h.Hamming(o) }

// Cosine returns the normalized similarity ⟨h,o⟩ / D ∈ [−1, 1]. Bipolar
// hypervectors all have norm √D, so this is the true cosine similarity.
func (h *HV) Cosine(o *HV) float64 {
	return float64(h.Dot(o)) / float64(h.Dim())
}

// Hamming returns the number of disagreeing components.
func (h *HV) Hamming(o *HV) int {
	h.mustMatch(o)
	return bitvec.HammingWords(h.words, o.words)
}

// Acc is a bundling accumulator: per-dimension signed counters that sum
// bipolar hypervectors. Bundling many vectors and taking the element-wise
// sign (Seal) yields a hypervector similar to every bundled member —
// HDC's superposition memory, and the representation of a BioHD
// reference-library vector while it is being built.
type Acc struct {
	counts []int32
}

// NewAcc returns an empty accumulator of dimension d (same dimension
// rules as NewHV).
func NewAcc(d int) *Acc {
	if d <= 0 || d%64 != 0 {
		panic(fmt.Sprintf("hdc: dimension %d must be a positive multiple of 64", d))
	}
	return &Acc{counts: make([]int32, d)}
}

// Dim returns the dimensionality D.
func (a *Acc) Dim() int { return len(a.counts) }

// Add folds h into the accumulator (+1 for bit 1, −1 for bit 0).
func (a *Acc) Add(h *HV) {
	a.mustMatch(h)
	for w, word := range h.words {
		// Fixed-size window lets the compiler drop bounds checks;
		// branchless sign accumulation moves each counter ±1.
		c := a.counts[w*64 : w*64+64 : w*64+64]
		for b := 0; b < 64; b++ {
			c[b] += int32(word>>uint(b)&1)<<1 - 1
		}
	}
}

// Counts exposes the raw counter slice (shared, not copied); the
// approximate window encoder, handed an accumulator as scratch,
// overwrites it.
func (a *Acc) Counts() []int32 { return a.counts }

func (a *Acc) mustMatch(h *HV) {
	if h.Dim() != len(a.counts) {
		panic(fmt.Sprintf("hdc: dimension mismatch %d vs %d", h.Dim(), len(a.counts)))
	}
}

// Seal binarizes the accumulator by element-wise sign: positive counters
// become +1, negative −1, and exact ties are broken by a deterministic
// pseudo-random stream derived from tieSeed — the k-th tied dimension,
// in dimension order, takes the low bit of the k-th draw of
// rng.New(tieSeed) — so sealing is reproducible. The accumulator is left
// intact (Seal may be called repeatedly, e.g. after incremental updates).
func (a *Acc) Seal(tieSeed uint64) *HV {
	h := NewHV(len(a.counts))
	tie := rng.New(tieSeed)
	for w := range h.words {
		// One output word is assembled in registers: the c > 0 and c < 0
		// lanes of its 64 counters as masks, ties drawn for what is left.
		var pos, neg uint64
		for _, c := range a.counts[w*64 : w*64+64 : w*64+64] {
			// Sign bits enter at the top and have moved down to their
			// lane after the 64th counter.
			pos = pos>>1 | uint64(-int64(c))&(1<<63)
			neg = neg>>1 | uint64(int64(c))&(1<<63)
		}
		for m := ^(pos | neg); m != 0; m &= m - 1 {
			pos |= m & -m & -(tie.Uint64() & 1)
		}
		h.words[w] = pos
	}
	return h
}

// Ties is the tie-break stream of one seed, packed: bit k is the low bit
// of the k-th draw of rng.New(seed), the bit Seal(seed) gives the k-th
// tied dimension. A vector ties at most D times, so D bits serve any
// seal. Immutable once built; share it.
type Ties struct {
	bits []uint64
}

// NewTies packs the first d draws of the tie-break stream of tieSeed
// (same dimension rules as NewHV).
func NewTies(d int, tieSeed uint64) *Ties {
	t := &Ties{bits: NewHV(d).Words()}
	src := rng.New(tieSeed)
	for k := 0; k < d; k++ {
		t.bits[k/64] |= src.Uint64() & 1 << uint(k%64)
	}
	return t
}

// Rows is the bundling store of library buckets, where nothing reads a
// counter: a table of packed hypervectors, stored by row (Put), any list
// of which seals as one bundle by one row fold (Seal) — a builder's
// open buckets, however many, in one buffer. Put × n then Seal of those
// n rows gives, bit for bit, what Acc.Add × n then Seal(seed) gives
// under the Ties of that seed.
type Rows struct {
	ties  *Ties
	words []uint64 // the rows' packed words back to back, row i at [i·D/64, (i+1)·D/64)
	eq    []uint64 // scratch of Seal: the tied lanes
	// deposit is the tie pass, bitvec.DepositBits; the tests put its
	// portable tier here to hold both tiers to the counters.
	deposit func(out, mask, stream []uint64)
}

// NewRows returns a table of n rows of the dimension of ties.
func NewRows(ties *Ties, n int) *Rows {
	nw := len(ties.bits)
	return &Rows{ties: ties, words: make([]uint64, n*nw), eq: make([]uint64, nw), deposit: bitvec.DepositBits}
}

// Put stores h as row i. It panics if h is not of the table's dimension
// or i is not a row of it.
func (r *Rows) Put(i int, h *HV) {
	if h.Dim() != 64*len(r.eq) {
		panic(fmt.Sprintf("hdc: dimension mismatch %d vs %d", h.Dim(), 64*len(r.eq)))
	}
	copy(r.words[i*len(r.eq):(i+1)*len(r.eq)], h.Words())
}

// Seal returns the bundle of the rows named by idx, in any order. One
// member is its own bundle. Otherwise one fold hands back the strict
// majority and the tied lanes (bitvec.MajorityRowsEq). An odd number
// cannot tie; in an even one the tied lanes take the stream's bits in
// dimension order, which is Acc.Seal's rule and not the positional tie
// row MajorityRows offers: one bitvec.DepositBits of the stream on the
// tied lanes. It panics if idx is empty or names a row the table does
// not hold.
func (r *Rows) Seal(idx []int32) *HV {
	nw := len(r.eq)
	h := NewHV(64 * nw)
	out := h.Words()
	if len(idx) == 1 {
		copy(out, r.words[int(idx[0])*nw:(int(idx[0])+1)*nw])
		return h
	}
	bitvec.MajorityRowsEq(out, r.eq, r.words, idx, nw)
	if len(idx)%2 == 0 {
		r.deposit(out, r.eq, r.ties.bits)
	}
	return h
}

// Bundle is a convenience that accumulates hs and seals in one step.
func Bundle(d int, tieSeed uint64, hs ...*HV) *HV {
	acc := NewAcc(d)
	for _, h := range hs {
		acc.Add(h)
	}
	return acc.Seal(tieSeed)
}

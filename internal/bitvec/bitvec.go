// Package bitvec implements fixed-length bit vectors packed into 64-bit
// words, the storage substrate of binary hypervectors (Vector: XNOR,
// rotation, Hamming distance), and the word-slice kernels BioHD runs on
// packed rows: the two scan stages of a probe — ScanPlane over the
// sketch plane (kernel_plane.go), then HammingBounded on the survivors
// (kernel.go) — and the encoders' row folds MajorityRows and XorRows
// (kernel_fold.go), each with AVX-512, AVX2 and portable tiers.
//
// All binary operations require operands of identical length and panic
// otherwise; length mismatches are programming errors, not runtime
// conditions.
package bitvec

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Vector is a fixed-length bit vector. The zero value is an empty vector
// of length 0; use New to create a sized vector.
//
// Bits beyond Len() inside the final word are kept zero (the "tail
// invariant"); every mutating operation re-normalizes the tail so that
// HammingDistance and Equal never see garbage.
type Vector struct {
	words []uint64
	n     int
}

// New returns a zeroed vector of n bits. It panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{words: make([]uint64, wordsFor(n)), n: n}
}

func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// FromWords builds an n-bit vector that takes ownership of words. It
// panics if words is too short for n bits. Tail bits are cleared.
func FromWords(words []uint64, n int) *Vector {
	if len(words) < wordsFor(n) {
		panic(fmt.Sprintf("bitvec: %d words cannot hold %d bits", len(words), n))
	}
	v := &Vector{words: words[:wordsFor(n)], n: n}
	v.clearTail()
	return v
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Words exposes the underlying packed words. The slice must not be
// resized; it may be mutated provided the tail invariant is restored.
func (v *Vector) Words() []uint64 { return v.words }

// Get reports whether bit i is set. It panics if i is out of range.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Set sets bit i to 1. It panics if i is out of range.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	w := make([]uint64, len(v.words))
	copy(w, v.words)
	return &Vector{words: w, n: v.n}
}

func (v *Vector) clearTail() {
	if r := uint(v.n % wordBits); r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << r) - 1
	}
}

func (v *Vector) mustMatch(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// Xnor stores the bitwise XNOR of a and b into v. Lengths must match.
// XNOR is the bipolar-domain multiplication: agreeing bits produce 1.
func (v *Vector) Xnor(a, b *Vector) {
	a.mustMatch(b)
	v.mustMatch(a)
	for i := range v.words {
		v.words[i] = ^(a.words[i] ^ b.words[i])
	}
	v.clearTail()
}

// HammingDistance returns the number of positions where v and o differ.
// Lengths must match.
func (v *Vector) HammingDistance(o *Vector) int {
	v.mustMatch(o)
	d := 0
	for i, w := range v.words {
		d += bits.OnesCount64(w ^ o.words[i])
	}
	return d
}

// Dot returns the bipolar dot product of v and o when both are read as
// bipolar vectors (bit 1 ↦ +1, bit 0 ↦ −1): matches − mismatches =
// Len − 2·HammingDistance. Lengths must match.
func (v *Vector) Dot(o *Vector) int {
	return v.n - 2*v.HammingDistance(o)
}

// Equal reports whether v and o have the same length and bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// RotateLeft stores a rotated left by k bit positions into v (bit i of a
// becomes bit (i+k) mod Len of v). v must not alias a unless k == 0.
// Negative k rotates right. Lengths must match.
func (v *Vector) RotateLeft(a *Vector, k int) {
	v.mustMatch(a)
	if v.n == 0 {
		return
	}
	k %= v.n
	if k < 0 {
		k += v.n
	}
	if k == 0 {
		if v != a {
			copy(v.words, a.words)
		}
		return
	}
	if v == a {
		panic("bitvec: RotateLeft with aliased operands and k != 0")
	}
	if v.n%wordBits == 0 {
		v.rotateAligned(a, k)
		return
	}
	v.rotateGeneric(a, k)
}

// rotateAligned rotates when Len is a multiple of 64: a word-granular
// copy plus a uniform cross-word shift. Output word j draws its low bits
// from source word j−wordShift and its high carry from the word before
// that, both taken modulo the ring.
func (v *Vector) rotateAligned(a *Vector, k int) {
	nw := len(v.words)
	wordShift := k / wordBits
	bitShift := uint(k % wordBits)
	if bitShift == 0 {
		for j := 0; j < nw; j++ {
			v.words[j] = a.words[((j-wordShift)%nw+nw)%nw]
		}
		return
	}
	inv := uint(wordBits) - bitShift
	for j := 0; j < nw; j++ {
		src := ((j-wordShift)%nw + nw) % nw
		prev := (src - 1 + nw) % nw
		v.words[j] = a.words[src]<<bitShift | a.words[prev]>>inv
	}
}

// rotateGeneric handles arbitrary lengths bit-by-bit on word chunks.
func (v *Vector) rotateGeneric(a *Vector, k int) {
	clear(v.words)
	for i := 0; i < v.n; i++ {
		if a.Get(i) {
			j := i + k
			if j >= v.n {
				j -= v.n
			}
			v.Set(j)
		}
	}
}

package bitvec

import (
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

// ones counts the set bits of a row.
func ones(row []uint64) int {
	c := 0
	for _, w := range row {
		c += bits.OnesCount64(w)
	}
	return c
}

// xnor is the packed bipolar product of two rows: a one wherever they
// agree.
func xnor(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	for i := range out {
		out[i] = ^(a[i] ^ b[i])
	}
	return out
}

// dotBitwise is the bipolar dot product by its definition, one
// component at a time: bit 1 reads +1, bit 0 reads −1.
func dotBitwise(a, b []uint64) int {
	dot := 0
	for i := 0; i < 64*len(a); i++ {
		x, y := int(a[i/64]>>(i%64)&1), int(b[i/64]>>(i%64)&1)
		dot += (2*x - 1) * (2*y - 1)
	}
	return dot
}

// rotateGeneric is the rotation by its definition, one bit at a time:
// bit i of a becomes bit (i+k) mod D.
func rotateGeneric(a []uint64, k int) []uint64 {
	d := 64 * len(a)
	k = (k%d + d) % d
	out := make([]uint64, len(a))
	for i := 0; i < d; i++ {
		if a[i/64]>>(i%64)&1 == 1 {
			j := (i + k) % d
			out[j/64] |= 1 << (j % 64)
		}
	}
	return out
}

func TestNewZeroed(t *testing.T) {
	for _, d := range []int{64, 128, 192, 4096, 8192} {
		row := New(d)
		if len(row) != d/64 {
			t.Fatalf("New(%d) has %d words, want %d", d, len(row), d/64)
		}
		if ones(row) != 0 {
			t.Fatalf("New(%d) has popcount %d", d, ones(row))
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	for _, d := range []int{-64, -1, 0, 1, 63, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d) did not panic", d)
				}
			}()
			New(d)
		}()
	}
}

// TestFillRespectsTail: a row is whole words, so a d-bit row of ones
// holds exactly d ones — at distance d from New's zero row and d·(+1)
// against itself — and rotation keeps it full.
func TestFillRespectsTail(t *testing.T) {
	for _, d := range []int{64, 128, 4096} {
		full, zero := New(d), New(d)
		for i := range full {
			full[i] = ^uint64(0)
		}
		if got := HammingWords(full, zero); got != d {
			t.Fatalf("d=%d: full row at distance %d from the zero row, want %d", d, got, d)
		}
		if got := dotBitwise(full, full); got != d {
			t.Fatalf("d=%d: full row dots itself to %d, want %d", d, got, d)
		}
		rot := New(d)
		RotateWords(rot, full, 37)
		if ones(rot) != d {
			t.Fatalf("d=%d: rotated full row has %d ones, want %d", d, ones(rot), d)
		}
	}
}

// TestXorXnorComplement: popcount(a XNOR b) and HammingWords(a, b) —
// the popcount of a XOR b — add up to the row's bit count, and the XOR
// fold of the two rows is the XOR whose popcount HammingWords takes.
func TestXorXnorComplement(t *testing.T) {
	for _, nw := range []int{1, 2, 9, 64} {
		a, b := randWords(nw, uint64(nw)), randWords(nw, uint64(nw)+100)
		ham := HammingWords(a, b)
		if got := ones(xnor(a, b)); got+ham != 64*nw {
			t.Fatalf("nw=%d: xnor popcount + hamming = %d+%d, want %d", nw, got, ham, 64*nw)
		}
		xor := make([]uint64, nw)
		XorRows(xor, append(slices.Clone(a), b...), []int32{0, 1}, nw)
		if ones(xor) != ham {
			t.Fatalf("nw=%d: XorRows popcount %d, HammingWords %d", nw, ones(xor), ham)
		}
	}
}

// TestBooleanIdentities: the distance the kernel measures obeys the
// identities of packed XNOR binding — a row is at distance D from its
// complement, binding both rows with a common row leaves their distance
// as it was, and binding twice with the same row undoes the first.
func TestBooleanIdentities(t *testing.T) {
	const nw = 13
	a, b, c := randWords(nw, 2), randWords(nw, 3), randWords(nw, 4)
	comp := make([]uint64, nw)
	for i := range a {
		comp[i] = ^a[i]
	}
	if got := HammingWords(a, comp); got != 64*nw {
		t.Fatalf("distance to the complement = %d, want %d", got, 64*nw)
	}
	if got, want := HammingWords(xnor(a, c), xnor(b, c)), HammingWords(a, b); got != want {
		t.Fatalf("binding with a common row moved the distance from %d to %d", want, got)
	}
	if !slices.Equal(xnor(a, b), xnor(b, a)) {
		t.Fatal("a XNOR b != b XNOR a")
	}
	if got := HammingWords(xnor(xnor(a, b), b), a); got != 0 {
		t.Fatalf("(a XNOR b) XNOR b is at distance %d from a", got)
	}
}

func TestHammingAndDot(t *testing.T) {
	a, b := []uint64{0b1100}, []uint64{0b1010}
	if d := HammingWords(a, b); d != 2 {
		t.Fatalf("hamming = %d, want 2", d)
	}
	comp := []uint64{^a[0]}
	for _, c := range []struct {
		name string
		x, y []uint64
		want int
	}{
		{"a·b", a, b, 64 - 2*2},
		{"a·a", a, a, 64},
		{"a·¬a", a, comp, -64},
	} {
		if got := dotBitwise(c.x, c.y); got != c.want {
			t.Fatalf("%s = %d, want %d", c.name, got, c.want)
		}
		if got := 64 - 2*HammingWords(c.x, c.y); got != c.want {
			t.Fatalf("%s by D − 2·HammingWords = %d, want %d", c.name, got, c.want)
		}
	}
}

// Property: the bipolar dot product is D − 2·HammingWords.
func TestQuickDotHammingRelation(t *testing.T) {
	f := func(seed uint64) bool {
		const nw = 8
		a, b := randWords(nw, seed), randWords(nw, seed^0x5bd1e995)
		return dotBitwise(a, b) == 64*nw-2*HammingWords(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRotateSmall(t *testing.T) {
	out, back := New(64), New(64)
	RotateWords(out, []uint64{1}, 2)
	if out[0] != 1<<2 {
		t.Fatalf("rotate by 2: got %b", out[0])
	}
	RotateWords(back, out, 62) // total 64 ≡ 0
	if back[0] != 1 {
		t.Fatalf("rotate full circle: got %b", back[0])
	}
	RotateWords(out, []uint64{1}, -1)
	if out[0] != 1<<63 {
		t.Fatalf("rotate by -1: got %b", out[0])
	}
	// The top bit of a word carries into the next word, and the top bit
	// of the row into bit 0.
	two := New(128)
	RotateWords(two, []uint64{1 << 63, 1 << 63}, 1)
	if two[0] != 1 || two[1] != 1 {
		t.Fatalf("rotate by 1 across words: got %b %b", two[0], two[1])
	}
}

func TestRotateAlignedMatchesGeneric(t *testing.T) {
	const nw = 4
	a := randWords(nw, 3)
	fast := New(64 * nw)
	for _, k := range []int{0, 1, 17, 63, 64, 65, 128, 255, 256, 300, -1, -64} {
		RotateWords(fast, a, k)
		if slow := rotateGeneric(a, k); !slices.Equal(fast, slow) {
			t.Fatalf("k=%d: word rotation differs from the bitwise rotation in %d bits", k, HammingWords(fast, slow))
		}
	}
}

func TestRotatePreservesPopcount(t *testing.T) {
	for _, nw := range []int{1, 2, 3, 16, 64} {
		a, d := randWords(nw, uint64(nw)+4), 64*nw
		out := New(d)
		for _, k := range []int{1, d / 2, d - 1, d, 3*d + 5, -7} {
			RotateWords(out, a, k)
			if ones(out) != ones(a) {
				t.Fatalf("nw=%d k=%d: popcount %d -> %d", nw, k, ones(a), ones(out))
			}
		}
	}
}

func TestRotateAliasPanics(t *testing.T) {
	v := randWords(1, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("aliased rotate did not panic")
		}
	}()
	RotateWords(v, v, 1)
}

func TestRotateAliasZeroShiftOK(t *testing.T) {
	v := randWords(2, 5)
	orig := slices.Clone(v)
	for _, k := range []int{0, 128, -256} { // each ≡ 0 mod D
		RotateWords(v, v, k)
		if !slices.Equal(v, orig) {
			t.Fatalf("rotate by %d changed the row", k)
		}
	}
}

// TestCloneIndependent: a row taken out of a plane, or put into one, is
// a copy — on a grouped row and on a tail row alike, writing the copy
// leaves its source as it was.
func TestCloneIndependent(t *testing.T) {
	const w, rows = 3, planeGroup + 2
	src := randWords(rows*w, 7)
	plane := slices.Clone(src)
	GroupInPlace(plane, w)
	before := slices.Clone(plane)
	for _, i := range []int{1, rows - 1} { // grouped, tail
		row := PlaneRow(make([]uint64, w), plane, w, i)
		want := slices.Clone(src[i*w : (i+1)*w])
		if !slices.Equal(row, want) {
			t.Fatalf("row %d: PlaneRow = %x, want %x", i, row, want)
		}
		row[0] ^= 1
		if !slices.Equal(plane, before) {
			t.Fatalf("row %d: writing PlaneRow's row changed the plane", i)
		}
		SetPlaneRow(plane, w, i, want)
		want[0] ^= 1
		if !slices.Equal(plane, before) {
			t.Fatalf("row %d: writing SetPlaneRow's source changed the plane", i)
		}
	}
}

// Property: rotation composes additively.
func TestQuickRotateComposes(t *testing.T) {
	f := func(seed uint64, k1, k2 uint8) bool {
		const nw = 3
		a := randWords(nw, seed)
		step1, step2, direct := New(64*nw), New(64*nw), New(64*nw)
		RotateWords(step1, a, int(k1))
		RotateWords(step2, step1, int(k2))
		RotateWords(direct, a, int(k1)+int(k2))
		return slices.Equal(step2, direct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRotateWords4096(b *testing.B) {
	x, out := randWords(64, 9), New(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RotateWords(out, x, 1)
	}
}

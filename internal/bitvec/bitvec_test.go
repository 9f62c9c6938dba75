package bitvec

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randomVector(r *rand.Rand, n int) *Vector {
	v := New(n)
	for i := range v.words {
		v.words[i] = r.Uint64()
	}
	v.clearTail()
	return v
}

// ones counts v's set bits.
func ones(v *Vector) int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// fromBits builds a vector whose i-th bit is set iff s[i] == '1'.
func fromBits(s string) *Vector {
	v := New(len(s))
	for i := range s {
		if s[i] == '1' {
			v.Set(i)
		}
	}
	return v
}

func TestNewZeroed(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096} {
		v := New(n)
		if v.Len() != n {
			t.Fatalf("Len = %d, want %d", v.Len(), n)
		}
		if ones(v) != 0 {
			t.Fatalf("new vector of %d bits has popcount %d", n, ones(v))
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	for n, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("bit %d not clear before Set", i)
		}
		v.Set(i)
		if !v.Get(i) || ones(v) != n+1 {
			t.Fatalf("bit %d: Get=%v, %d bits set after Set, want true, %d", i, v.Get(i), ones(v), n+1)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(10)
	for name, f := range map[string]func(){
		"Get": func() { v.Get(10) },
		"Set": func() { v.Set(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s out of range did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestFromWordsClearsTail(t *testing.T) {
	v := FromWords([]uint64{^uint64(0)}, 10)
	if got := ones(v); got != 10 {
		t.Fatalf("popcount = %d, want 10 (tail not cleared)", got)
	}
}

func TestFromWordsTooShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromWords with short slice did not panic")
		}
	}()
	FromWords([]uint64{0}, 65)
}

// TestFillRespectsTail: a XNOR a sets every bit and leaves the tail
// clear.
func TestFillRespectsTail(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 64, 100, 4096} {
		a, v := randomVector(r, n), New(n)
		v.Xnor(a, a)
		if ones(v) != n {
			t.Fatalf("n=%d: a XNOR a has %d ones, want %d", n, ones(v), n)
		}
	}
}

// TestXorXnorComplement: popcount(a XNOR b) and popcount(a XOR b) — the
// Hamming distance — add up to n.
func TestXorXnorComplement(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 64, 100, 4096} {
		a, b := randomVector(r, n), randomVector(r, n)
		xn := New(n)
		xn.Xnor(a, b)
		if ones(xn)+a.HammingDistance(b) != n {
			t.Fatalf("n=%d: xnor popcount + hamming = %d+%d, want %d",
				n, ones(xn), a.HammingDistance(b), n)
		}
	}
}

// TestBooleanIdentities: XNOR commutes and is its own inverse.
func TestBooleanIdentities(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	n := 777
	a, b := randomVector(r, n), randomVector(r, n)
	ab, ba, back := New(n), New(n), New(n)
	ab.Xnor(a, b)
	ba.Xnor(b, a)
	if !ab.Equal(ba) {
		t.Fatal("a XNOR b != b XNOR a")
	}
	back.Xnor(ab, b)
	if !back.Equal(a) {
		t.Fatal("(a XNOR b) XNOR b != a")
	}
}

func TestHammingAndDot(t *testing.T) {
	a, b := fromBits("1100"), fromBits("1010")
	if d := a.HammingDistance(b); d != 2 {
		t.Fatalf("hamming = %d, want 2", d)
	}
	if dot := a.Dot(b); dot != 0 {
		t.Fatalf("dot = %d, want 0", dot)
	}
	if dot := a.Dot(a); dot != 4 {
		t.Fatalf("self dot = %d, want 4", dot)
	}
	if dot := a.Dot(fromBits("0011")); dot != -4 {
		t.Fatalf("dot with complement = %d, want -4", dot)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	a.HammingDistance(b)
}

func TestRotateSmall(t *testing.T) {
	v := fromBits("10000")
	out := New(5)
	out.RotateLeft(v, 2)
	if !out.Equal(fromBits("00100")) {
		t.Fatalf("rotate by 2: got %b", out.Words())
	}
	out2 := New(5)
	out2.RotateLeft(out, 3) // total 5 ≡ 0
	if !out2.Equal(v) {
		t.Fatalf("rotate full circle: got %b want %b", out2.Words(), v.Words())
	}
	neg := New(5)
	neg.RotateLeft(v, -1)
	if !neg.Equal(fromBits("00001")) {
		t.Fatalf("rotate by -1: got %b", neg.Words())
	}
}

func TestRotateAlignedMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 256 // multiple of 64 → aligned fast path
	a := randomVector(r, n)
	for _, k := range []int{0, 1, 17, 63, 64, 65, 128, 255, 256, 300, -1, -64} {
		fast, slow := New(n), New(n)
		fast.RotateLeft(a, k)
		slow.rotateGeneric(a, ((k%n)+n)%n)
		if !fast.Equal(slow) {
			t.Fatalf("k=%d: aligned path diverges from generic", k)
		}
	}
}

func TestRotatePreservesPopcount(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 7, 64, 127, 128, 1000, 4096} {
		a := randomVector(r, n)
		out := New(n)
		for _, k := range []int{1, n / 2, n - 1, n, 3*n + 5} {
			out.RotateLeft(a, k)
			if ones(out) != ones(a) {
				t.Fatalf("n=%d k=%d: popcount %d -> %d", n, k, ones(a), ones(out))
			}
		}
	}
}

func TestRotateAliasPanics(t *testing.T) {
	v := New(64)
	defer func() {
		if recover() == nil {
			t.Fatal("aliased rotate did not panic")
		}
	}()
	v.RotateLeft(v, 1)
}

func TestRotateAliasZeroShiftOK(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	v := randomVector(r, 128)
	orig := v.Clone()
	v.RotateLeft(v, 0)
	if !v.Equal(orig) {
		t.Fatal("rotate by 0 changed vector")
	}
	v.RotateLeft(v, 128) // ≡ 0 mod n
	if !v.Equal(orig) {
		t.Fatal("rotate by n changed vector")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(64)
	a.Set(3)
	b := a.Clone()
	b.Set(5)
	if a.Get(5) {
		t.Fatal("mutation of clone leaked into original")
	}
	if !b.Get(3) {
		t.Fatal("clone lost bits")
	}
}

// Property: rotate is a bijection that composes additively.
func TestQuickRotateComposes(t *testing.T) {
	f := func(seed int64, k1, k2 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 192
		a := randomVector(r, n)
		step1, step2, direct := New(n), New(n), New(n)
		step1.RotateLeft(a, int(k1))
		step2.RotateLeft(step1, int(k2))
		direct.RotateLeft(a, int(k1)+int(k2))
		return step2.Equal(direct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Hamming distance is a metric (symmetry + triangle inequality).
func TestQuickHammingMetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 320
		a, b, c := randomVector(r, n), randomVector(r, n), randomVector(r, n)
		ab, ba := a.HammingDistance(b), b.HammingDistance(a)
		ac, cb := a.HammingDistance(c), c.HammingDistance(b)
		return ab == ba && ab <= ac+cb && a.HammingDistance(a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the parity fold is a group operation — XorRows gives the same
// words for any order of the indices, and a row named twice cancels.
func TestQuickXorGroup(t *testing.T) {
	f := func(seed uint64, perm uint8) bool {
		const w, rows = 5, 6
		table := randWords(rows*w, seed)
		idx := []int32{0, 1, 2, 3, 4, 5}
		shuffled := slices.Clone(idx)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := int(perm) % (i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		a, b, c := make([]uint64, w), make([]uint64, w), make([]uint64, w)
		XorRows(a, table, idx, w)
		XorRows(b, table, shuffled, w)
		XorRows(c, table, append(shuffled, 3, 3), w)
		return slices.Equal(a, b) && slices.Equal(a, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot relates to Hamming by Dot = n − 2·ham.
func TestQuickDotHammingRelation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 500
		a, b := randomVector(r, n), randomVector(r, n)
		return a.Dot(b) == n-2*a.HammingDistance(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkXnor4096(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	x, y := randomVector(r, 4096), randomVector(r, 4096)
	out := New(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out.Xnor(x, y)
	}
}

func BenchmarkHamming8192(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	x, y := randomVector(r, 8192), randomVector(r, 8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.HammingDistance(y)
	}
}

func BenchmarkRotateAligned4096(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	x := randomVector(r, 4096)
	out := New(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out.RotateLeft(x, 1)
	}
}

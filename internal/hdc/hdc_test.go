package hdc

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

const testDim = 1024

func TestNewHVDimensionRules(t *testing.T) {
	for _, d := range []int{-64, 0, 63, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHV(%d) did not panic", d)
				}
			}()
			NewHV(d)
		}()
	}
	if h := NewHV(128); h.Dim() != 128 || h.Words()[0]|h.Words()[1] != 0 {
		t.Fatalf("NewHV(128): Dim = %d, words %x, want 128 and zero", h.Dim(), h.Words())
	}
}

func TestHVFromArenaRow(t *testing.T) {
	row := []uint64{1, 2}
	h := HVFromArenaRow(row, 128)
	if h.Dim() != 128 {
		t.Fatalf("Dim = %d", h.Dim())
	}
	row[1] = 7
	if h.Words()[1] != 7 {
		t.Fatal("HVFromArenaRow copied the row")
	}
	for _, tc := range []struct{ words, d int }{{1, 128}, {3, 128}, {2, 100}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HVFromArenaRow(%d words, d=%d) did not panic", tc.words, tc.d)
				}
			}()
			HVFromArenaRow(make([]uint64, tc.words), tc.d)
		}()
	}
}

func TestRandomHVQuasiOrthogonal(t *testing.T) {
	src := rng.New(1)
	a, b := RandomHV(testDim, src), RandomHV(testDim, src)
	// |dot| should be within ~5σ = 5√D.
	bound := int(5 * math.Sqrt(testDim))
	if d := a.Dot(b); d > bound || d < -bound {
		t.Fatalf("random pair dot = %d, beyond 5σ bound %d", d, bound)
	}
	if a.Dot(a) != testDim {
		t.Fatalf("self dot = %d, want %d", a.Dot(a), testDim)
	}
	if a.Cosine(a) != 1 {
		t.Fatalf("self cosine = %v", a.Cosine(a))
	}
}

func TestRandomHVDeterministic(t *testing.T) {
	a := RandomHV(testDim, rng.New(7))
	b := RandomHV(testDim, rng.New(7))
	if !a.Equal(b) {
		t.Fatal("same seed produced different hypervectors")
	}
}

func TestBindSelfInverse(t *testing.T) {
	src := rng.New(2)
	a, b := RandomHV(testDim, src), RandomHV(testDim, src)
	bound, recovered := NewHV(testDim), NewHV(testDim)
	bound.Bind(a, b)
	recovered.Bind(bound, b)
	if !recovered.Equal(a) {
		t.Fatal("Bind is not self-inverse")
	}
}

func TestBindDissimilarToOperands(t *testing.T) {
	src := rng.New(3)
	a, b := RandomHV(testDim, src), RandomHV(testDim, src)
	bound := NewHV(testDim)
	bound.Bind(a, b)
	limit := int(6 * math.Sqrt(testDim))
	if d := bound.Dot(a); d > limit || d < -limit {
		t.Fatalf("bind similar to operand a: dot=%d", d)
	}
	if d := bound.Dot(b); d > limit || d < -limit {
		t.Fatalf("bind similar to operand b: dot=%d", d)
	}
}

func TestBindPreservesSimilarity(t *testing.T) {
	// dot(a⊙k, b⊙k) == dot(a, b) for any key k.
	src := rng.New(4)
	a, b, k := RandomHV(testDim, src), RandomHV(testDim, src), RandomHV(testDim, src)
	ak, bk := NewHV(testDim), NewHV(testDim)
	ak.Bind(a, k)
	bk.Bind(b, k)
	if ak.Dot(bk) != a.Dot(b) {
		t.Fatalf("binding broke similarity: %d vs %d", ak.Dot(bk), a.Dot(b))
	}
}

func TestPermuteOrthogonalizes(t *testing.T) {
	src := rng.New(5)
	a := RandomHV(testDim, src)
	rotated := NewHV(testDim)
	limit := int(6 * math.Sqrt(testDim))
	for _, k := range []int{1, 2, 10, 100, testDim / 2} {
		rotated.Permute(a, k)
		if d := a.Dot(rotated); d > limit || d < -limit {
			t.Fatalf("rho^%d(a) similar to a: dot=%d", k, d)
		}
	}
}

func TestPermuteInverse(t *testing.T) {
	src := rng.New(6)
	a := RandomHV(testDim, src)
	fwd, back := NewHV(testDim), NewHV(testDim)
	fwd.Permute(a, 17)
	back.Permute(fwd, -17)
	if !back.Equal(a) {
		t.Fatal("rho^-k(rho^k(a)) != a")
	}
}

func TestPermutePreservesDistance(t *testing.T) {
	src := rng.New(7)
	a, b := RandomHV(testDim, src), RandomHV(testDim, src)
	ra, rb := NewHV(testDim), NewHV(testDim)
	ra.Permute(a, 33)
	rb.Permute(b, 33)
	if ra.Hamming(rb) != a.Hamming(b) {
		t.Fatal("permutation changed pairwise distance")
	}
}

func TestBundleSimilarToMembers(t *testing.T) {
	src := rng.New(8)
	members := make([]*HV, 9)
	for i := range members {
		members[i] = RandomHV(testDim, src)
	}
	bundle := Bundle(testDim, 99, members...)
	// Expected dot of a member with the majority of t vectors is
	// ≈ D·sqrt(2/(π t)); with t=9 and D=1024 that is ≈ 271.
	// Noise floor for non-members is ~√D ≈ 32.
	for i, m := range members {
		if d := bundle.Dot(m); d < 150 {
			t.Fatalf("member %d dot with bundle = %d, too low", i, d)
		}
	}
	outsider := RandomHV(testDim, src)
	if d := bundle.Dot(outsider); d > 150 {
		t.Fatalf("outsider dot with bundle = %d, too high", d)
	}
}

func TestSealTieBreakDeterministic(t *testing.T) {
	acc := NewAcc(256) // all counters zero → every dimension ties
	a, b := acc.Seal(42), acc.Seal(42)
	if !a.Equal(b) {
		t.Fatal("tie-break not deterministic for equal seeds")
	}
	c := acc.Seal(43)
	if a.Equal(c) {
		t.Fatal("distinct tie seeds produced identical seal of all-ties")
	}
	// Tie-broken bits should be roughly balanced.
	pc := 0
	for _, w := range a.Words() {
		pc += bits.OnesCount64(w)
	}
	if pc < 64 || pc > 192 {
		t.Fatalf("tie-broken popcount %d far from balanced", pc)
	}
}

func TestSealLeavesAccIntact(t *testing.T) {
	src := rng.New(12)
	acc := NewAcc(testDim)
	a := RandomHV(testDim, src)
	acc.Add(a)
	before := slices.Clone(acc.Counts())
	_ = acc.Seal(1)
	if !slices.Equal(acc.Counts(), before) {
		t.Fatal("Seal mutated accumulator")
	}
	if !acc.Seal(1).Equal(a) {
		t.Fatal("second Seal differs")
	}
}

func TestAccDimensionMismatchPanics(t *testing.T) {
	acc := NewAcc(128)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	acc.Add(NewHV(64))
}

// Property: binding commutes and is associative.
func TestQuickBindAlgebra(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		d := 256
		a, b, c := RandomHV(d, src), RandomHV(d, src), RandomHV(d, src)
		ab, ba := NewHV(d), NewHV(d)
		ab.Bind(a, b)
		ba.Bind(b, a)
		if !ab.Equal(ba) {
			return false
		}
		l, r, t1, t2 := NewHV(d), NewHV(d), NewHV(d), NewHV(d)
		t1.Bind(a, b)
		l.Bind(t1, c)
		t2.Bind(b, c)
		r.Bind(a, t2)
		return l.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: permutation distributes over binding:
// rho(a ⊙ b) == rho(a) ⊙ rho(b).
func TestQuickPermuteDistributesOverBind(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		src := rng.New(seed)
		d := 256
		k := int(kRaw)
		a, b := RandomHV(d, src), RandomHV(d, src)
		lhs, rhs, ab, ra, rb := NewHV(d), NewHV(d), NewHV(d), NewHV(d), NewHV(d)
		ab.Bind(a, b)
		lhs.Permute(ab, k)
		ra.Permute(a, k)
		rb.Permute(b, k)
		rhs.Bind(ra, rb)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBind4096(b *testing.B) {
	src := rng.New(1)
	x, y := RandomHV(4096, src), RandomHV(4096, src)
	out := NewHV(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out.Bind(x, y)
	}
}

func BenchmarkAccAdd4096(b *testing.B) {
	src := rng.New(2)
	x := RandomHV(4096, src)
	acc := NewAcc(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc.Add(x)
	}
}

func BenchmarkAccSeal8192(b *testing.B) {
	src := rng.New(4)
	acc := NewAcc(8192)
	for i := 0; i < 16; i++ { // an even fold: ≈ 1 600 lanes tie
		acc.Add(RandomHV(8192, src))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = acc.Seal(5)
	}
}

// BenchmarkRowsSeal8192 seals a bucket of 16 members, an even fold
// (about 1 600 lanes tie), on each tie-pass tier.
func BenchmarkRowsSeal8192(b *testing.B) {
	src := rng.New(4)
	rows := NewRows(NewTies(8192, 5), 16)
	idx := make([]int32, 16)
	for i := range idx {
		rows.Put(i, RandomHV(8192, src))
		idx[i] = int32(i)
	}
	for _, tier := range depositTiers {
		b.Run(tier.name, func(b *testing.B) {
			rows.deposit = tier.deposit
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = rows.Seal(idx)
			}
		})
	}
}

func BenchmarkDot8192(b *testing.B) {
	src := rng.New(3)
	x, y := RandomHV(8192, src), RandomHV(8192, src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Dot(y)
	}
}

func TestHVCloneAndAccessors(t *testing.T) {
	src := rng.New(30)
	a := RandomHV(256, src)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone differs")
	}
	b.Words()[0] ^= 1
	if a.Equal(b) {
		t.Fatal("clone shares storage")
	}
	acc := NewAcc(256)
	if acc.Dim() != 256 {
		t.Fatalf("Acc.Dim = %d", acc.Dim())
	}
}

func TestNewAccBadDimensionPanics(t *testing.T) {
	for _, d := range []int{0, -64, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewAcc(%d) did not panic", d)
				}
			}()
			NewAcc(d)
		}()
	}
}

// rotateBitwise is ρ^k by its definition, one bit at a time: bit i of a
// becomes bit (i+k) mod D.
func rotateBitwise(a *HV, k int) *HV {
	d := a.Dim()
	k = (k%d + d) % d // so that i+k cannot overflow
	out := NewHV(d)
	for i := 0; i < d; i++ {
		if a.words[i/64]>>(i%64)&1 == 1 {
			j := (i + k) % d
			out.words[j/64] |= 1 << (j % 64)
		}
	}
	return out
}

func TestPermuteMatchesBitwiseRotation(t *testing.T) {
	src := rng.New(31)
	for _, d := range []int{64, 192, 8192} {
		a, got := RandomHV(d, src), NewHV(d)
		for _, k := range []int{0, 1, 63, 64, 65, d - 1, d, d + 1, -1, -65, 3*d + 7} {
			got.Permute(a, k)
			if want := rotateBitwise(a, k); !got.Equal(want) {
				t.Errorf("D=%d k=%d: Permute differs from the bitwise rotation in %d bits", d, k, got.Hamming(want))
			}
		}
	}
}

func TestPermuteAliasing(t *testing.T) {
	a := RandomHV(128, rng.New(32))
	want := a.Clone()
	for _, k := range []int{0, 128, -256} {
		a.Permute(a, k) // k ≡ 0 (mod D): a no-op in place
		if !a.Equal(want) {
			t.Fatalf("in-place Permute by %d changed the vector", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("in-place Permute by 1 did not panic")
		}
	}()
	a.Permute(a, 1)
}

func TestDimensionMismatch(t *testing.T) {
	a, b := NewHV(64), NewHV(128)
	if a.Equal(b) {
		t.Fatal("hypervectors of different dimensions are Equal")
	}
	for name, fn := range map[string]func(){
		"Bind operands": func() { a.Bind(a, b) },
		"Bind result":   func() { b.Bind(a, a) },
		"Permute":       func() { a.Permute(b, 1) },
		"Hamming":       func() { a.Hamming(b) },
		"Dot":           func() { a.Dot(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s across dimensions did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzHV holds the primitives to their definitions on arbitrary
// contents: Permute to the bitwise rotation, for any shift, and undone by
// the opposite shift; Bind to its own inverse, with a one wherever a and
// b agree; Dot to D − 2·popcount of the XOR, word by word.
func FuzzHV(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{0xff, 0x00})
	f.Add(uint8(1), int64(-65), []byte("ACGTACGTTTGACCA"))
	f.Add(uint8(2), int64(8192*3+7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(3), int64(-1<<62), []byte{})
	f.Add(uint8(1), int64(math.MinInt64), []byte{0x80})
	f.Add(uint8(1), int64(math.MaxInt64), []byte{0x01})
	f.Fuzz(func(t *testing.T, d8 uint8, k64 int64, raw []byte) {
		d := []int{64, 192, 1024, 8192}[d8%4]
		k := int(k64)
		a, b := NewHV(d), NewHV(d)
		for w := range a.words {
			var x uint64
			for i := 0; i < 8 && len(raw) > 0; i++ {
				x = x<<8 | uint64(raw[(w*8+i)%len(raw)])
			}
			a.words[w] = x ^ uint64(w)*0x9e3779b97f4a7c15
			b.words[w] = bits.RotateLeft64(a.words[w], 17) ^ uint64(len(raw))
		}
		rot, back := NewHV(d), NewHV(d)
		rot.Permute(a, k)
		if want := rotateBitwise(a, k); !rot.Equal(want) {
			t.Fatalf("D=%d k=%d: Permute differs from the bitwise rotation in %d bits", d, k, rot.Hamming(want))
		}
		back.Permute(rot, -(k % d)) // −k itself overflows at the most negative k
		if !back.Equal(a) {
			t.Fatalf("D=%d k=%d: Permute by -k does not undo Permute by k", d, k)
		}
		ab := NewHV(d)
		ab.Bind(a, b)
		back.Bind(ab, b)
		if !back.Equal(a) {
			t.Fatalf("D=%d: Bind(Bind(a, b), b) != a", d)
		}
		ham, agree := 0, 0
		for w := range a.words {
			ham += bits.OnesCount64(a.words[w] ^ b.words[w])
			agree += bits.OnesCount64(ab.words[w])
		}
		if got := a.Dot(b); got != d-2*ham {
			t.Fatalf("D=%d: Dot = %d, want D − 2·%d = %d", d, got, ham, d-2*ham)
		}
		if agree != d-ham {
			t.Fatalf("D=%d: Bind(a, b) has %d ones, want D − %d = %d", d, agree, ham, d-ham)
		}
	})
}

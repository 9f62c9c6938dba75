package encoding

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/genome"
	"repro/internal/hdc"
	"repro/internal/rng"
)

func testEncoder(t *testing.T, dim, window int) *Encoder {
	t.Helper()
	e, err := New(Config{Dim: dim, Window: window, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero dim":      {Dim: 0, Window: 10},
		"unaligned dim": {Dim: 100, Window: 10},
		"zero window":   {Dim: 1024, Window: 0},
		"window >= dim": {Dim: 64, Window: 64},
	} {
		if _, err := New(cfg); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	if _, err := New(Config{Dim: 1024, Window: 32}); err != nil {
		t.Fatal(err)
	}
}

func TestEncoderDeterministic(t *testing.T) {
	a := testEncoder(t, 1024, 16)
	b := testEncoder(t, 1024, 16)
	seq := genome.Random(64, rng.New(1))
	if !a.EncodeWindowExact(seq, 3).Equal(b.EncodeWindowExact(seq, 3)) {
		t.Fatal("exact encodings differ across encoders with same seed")
	}
	if !a.EncodeWindowApprox(seq, 3).Equal(b.EncodeWindowApprox(seq, 3)) {
		t.Fatal("approx encodings differ across encoders with same seed")
	}
}

func TestExactEncodingDiscriminates(t *testing.T) {
	e := testEncoder(t, 2048, 24)
	seq := genome.Random(100, rng.New(2))
	h1 := e.EncodeWindowExact(seq, 0)
	// Same content elsewhere encodes identically.
	dup := seq.Slice(0, 24).Append(seq.Slice(24, 100))
	if !e.EncodeWindowExact(dup, 0).Equal(h1) {
		t.Fatal("equal window content encoded differently")
	}
	// One substitution anywhere randomizes the encoding.
	mut := seq.Clone()
	mut.Set(10, mut.At(10).Complement())
	h2 := e.EncodeWindowExact(mut, 0)
	limit := int(6 * math.Sqrt(2048))
	if d := h1.Dot(h2); d > limit || d < -limit {
		t.Fatalf("mutated exact encoding still similar: dot=%d", d)
	}
}

func TestExactEncodingPositionSensitive(t *testing.T) {
	// The same bases in a different order must encode differently.
	e := testEncoder(t, 2048, 4)
	a := genome.MustFromString("ACGT")
	b := genome.MustFromString("TGCA")
	ha, hb := e.EncodeWindowExact(a, 0), e.EncodeWindowExact(b, 0)
	limit := int(6 * math.Sqrt(2048))
	if d := ha.Dot(hb); d > limit || d < -limit {
		t.Fatalf("permuted window content encoded similarly: dot=%d", d)
	}
}

func TestApproxEncodingGracefulDegradation(t *testing.T) {
	e := testEncoder(t, 4096, 33) // odd window: no counter ties
	src := rng.New(3)
	seq := genome.Random(33, src)
	base := e.EncodeWindowApprox(seq, 0)
	prevCos := 1.0
	for _, nmut := range []int{1, 4, 8, 16} {
		mut, _ := genome.SubstituteExactly(seq, nmut, rng.New(uint64(nmut)))
		cos := base.Cosine(e.EncodeWindowApprox(mut, 0))
		if cos >= prevCos {
			t.Fatalf("similarity not decreasing: %d muts -> cos %v (prev %v)", nmut, cos, prevCos)
		}
		prevCos = cos
	}
	// With half the window mutated the similarity should still clearly
	// exceed the random-pair noise floor (~6/√D ≈ 0.094).
	if prevCos < 0.15 {
		t.Fatalf("16/33 mutated window already at noise floor: cos=%v", prevCos)
	}
	// An unrelated random window sits at the chance-agreement baseline:
	// ~1/4 of positions share a base by chance, so its similarity is well
	// below a half-mutated window's (17/33 agreement) but not zero.
	other := genome.Random(33, src)
	if cos := base.Cosine(e.EncodeWindowApprox(other, 0)); cos > prevCos || cos > 0.4 {
		t.Fatalf("unrelated window too similar: cos=%v (half-mutated %v)", cos, prevCos)
	}
}

func TestApproxSimilarityTracksMatchingPositions(t *testing.T) {
	// Expected cosine between two bundled windows sharing f·w positions
	// is ≈ (2f−1)·attenuation... empirically it must be monotone in f and
	// roughly linear; check the midpoint sits between the extremes.
	e := testEncoder(t, 8192, 32)
	seq := genome.Random(32, rng.New(4))
	full := e.EncodeWindowApprox(seq, 0)
	half, _ := genome.SubstituteExactly(seq, 16, rng.New(5))
	quarter, _ := genome.SubstituteExactly(seq, 8, rng.New(6))
	cosHalf := full.Cosine(e.EncodeWindowApprox(half, 0))
	cosQuarter := full.Cosine(e.EncodeWindowApprox(quarter, 0))
	if !(cosQuarter > cosHalf && cosHalf > 0) {
		t.Fatalf("similarity ordering broken: 8 muts %v, 16 muts %v", cosQuarter, cosHalf)
	}
	if ratio := cosQuarter / cosHalf; ratio < 1.2 || ratio > 3.0 {
		t.Fatalf("similarity not roughly proportional: ratio %v", ratio)
	}
}

func TestEncodeDispatch(t *testing.T) {
	e := testEncoder(t, 1024, 8)
	seq := genome.Random(20, rng.New(7))
	if !e.Encode(seq, 2, ModeExact).Equal(e.EncodeWindowExact(seq, 2)) {
		t.Fatal("Encode(ModeExact) mismatch")
	}
	if !e.Encode(seq, 2, ModeApprox).Equal(e.EncodeWindowApprox(seq, 2)) {
		t.Fatal("Encode(ModeApprox) mismatch")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unknown mode did not panic")
			}
		}()
		e.Encode(seq, 0, Mode(9))
	}()
}

func TestWindowOverrunPanics(t *testing.T) {
	e := testEncoder(t, 1024, 16)
	seq := genome.Random(20, rng.New(8))
	for _, start := range []int{-1, 5, 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("start=%d did not panic", start)
				}
			}()
			e.EncodeWindowExact(seq, start)
		}()
	}
}

// chainEncodeExact is the binding chain as the definition writes it —
// Window − 1 Binds of rotated item vectors — and shares nothing with the
// parity fold but the rotation table.
func chainEncodeExact(e *Encoder, seq *genome.Sequence, start int) *hdc.HV {
	out := e.rot[seq.At(start)][0].Clone()
	for i := 1; i < e.cfg.Window; i++ {
		out.Bind(out, e.rot[seq.At(start+i)][i])
	}
	return out
}

// TestExactKernelMatchesChain is the exact twin of
// TestApproxKernelMatchesOracle: the direct encoder (a parity fold of
// table rows, complemented for even Window) against the Bind chain, at
// odd and even Window, at Windows past one exactChunk of indices, and at
// dimensions on and off the vector tiers' 512-bit column block.
func TestExactKernelMatchesChain(t *testing.T) {
	type shape struct{ dim, window int }
	shapes := []shape{{64, 1}, {64, 2}, {64, 63}, {2048, exactChunk}, {2048, exactChunk + 1}, {4096, 3*exactChunk + 7}, {4096, 4 * exactChunk}}
	for w := 1; w <= 70; w++ {
		shapes = append(shapes, shape{512, w}, shape{1024 + 64, w})
	}
	for _, sh := range shapes {
		e, err := New(Config{Dim: sh.dim, Window: sh.window, Seed: uint64(sh.dim + sh.window)})
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range []*genome.Sequence{
			genome.Random(sh.window+5, rng.New(uint64(sh.window))),
			genome.NewSequence(sh.window + 5), // all A: every row a rotation of one item vector
		} {
			dst := hdc.NewHV(sh.dim)
			for start := 0; start+sh.window <= seq.Len(); start++ {
				e.EncodeWindowExactInto(dst, seq, start)
				if want := chainEncodeExact(e, seq, start); !dst.Equal(want) {
					t.Fatalf("D=%d W=%d start=%d: direct encoding differs from the Bind chain in %d bits",
						sh.dim, sh.window, start, dst.Hamming(want))
				}
			}
		}
	}
}

// TestSlideExactMatchesFold holds the one-base slide to the direct
// fold at every step across a 500-base sequence, starting from a fold at
// offset 0 and from one at a seeded random offset: at odd and even
// Window (the chain's complement), at Windows either side of a word of
// positions, and at dimensions of one word, of three (no whole 64-byte
// block: the portable tier) and of 128 (the vector tier).
func TestSlideExactMatchesFold(t *testing.T) {
	seq := genome.Random(500, rng.New(60))
	for _, dim := range []int{64, 192, 8192} {
		for _, window := range []int{1, 2, 31, 32, 33, 64} {
			if window >= dim {
				continue
			}
			e := testEncoder(t, dim, window)
			last := seq.Len() - window
			for _, from := range []int{0, rng.New(uint64(dim + window)).Intn(last)} {
				dst, want := hdc.NewHV(dim), hdc.NewHV(dim)
				e.EncodeWindowExactInto(dst, seq, from)
				for start := from; start < last; start++ {
					e.SlideExact(dst, seq, start)
					if e.EncodeWindowExactInto(want, seq, start+1); !dst.Equal(want) {
						t.Fatalf("D=%d W=%d from %d: slide to %d differs from the fold in %d bits",
							dim, window, from, start+1, dst.Hamming(want))
					}
				}
			}
			dst := e.EncodeWindowExact(seq, 0)
			start := 0
			if n := testing.AllocsPerRun(50, func() {
				e.SlideExact(dst, seq, start)
				start++
			}); n != 0 {
				t.Errorf("D=%d W=%d: SlideExact allocates %v times per step", dim, window, n)
			}
		}
	}
}

func TestSlideExactPanics(t *testing.T) {
	e := testEncoder(t, 256, 8)
	seq := genome.Random(20, rng.New(61))
	for name, fn := range map[string]func(){
		"negative start": func() { e.SlideExact(hdc.NewHV(256), seq, -1) },
		"next overruns":  func() { e.SlideExact(hdc.NewHV(256), seq, 12) },
		"wrong dim":      func() { e.SlideExact(hdc.NewHV(128), seq, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestEncodeIntoAllocs pins both hot-path encoders at zero allocations
// per window through the bitvec fold calls — the dynamic twin of the
// hot-path prover's static proof.
func TestEncodeIntoAllocs(t *testing.T) {
	for _, sh := range []struct{ dim, window int }{{8192, 32}, {1024 + 64, 33}, {4096, 3 * exactChunk}} {
		e := testEncoder(t, sh.dim, sh.window)
		seq := genome.Random(2*sh.window, rng.New(3))
		dst, acc := hdc.NewHV(sh.dim), hdc.NewAcc(sh.dim)
		start := 0
		if n := testing.AllocsPerRun(50, func() {
			e.EncodeWindowApproxInto(dst, acc, seq, start)
			start = (start + 1) % sh.window
		}); n != 0 {
			t.Errorf("D=%d W=%d: EncodeWindowApproxInto allocates %v times per window", sh.dim, sh.window, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			e.EncodeWindowExactInto(dst, seq, start)
			start = (start + 1) % sh.window
		}); n != 0 {
			t.Errorf("D=%d W=%d: EncodeWindowExactInto allocates %v times per window", sh.dim, sh.window, n)
		}
	}
}

func TestBaseHVOrthogonal(t *testing.T) {
	e := testEncoder(t, 2048, 8)
	limit := int(6 * math.Sqrt(2048))
	for a := genome.Base(0); a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			if d := e.BaseHV(a).Dot(e.BaseHV(b)); d > limit || d < -limit {
				t.Fatalf("base HVs %v,%v not quasi-orthogonal: %d", a, b, d)
			}
		}
	}
}

func TestAccumulateWindowCounts(t *testing.T) {
	e := testEncoder(t, 1024, 5)
	seq := genome.Random(10, rng.New(15))
	acc := e.AccumulateWindow(seq, 2)
	// A sum of 5 bipolar rows is odd, at most 5 in magnitude, and over
	// 1024 lanes reaches ±5 somewhere.
	most := int32(0)
	for j, c := range acc.Counts() {
		if c%2 == 0 || c > 5 || c < -5 {
			t.Fatalf("counter %d = %d is not a sum of 5 bipolar rows", j, c)
		}
		most = max(most, c, -c)
	}
	if most != 5 {
		t.Fatalf("largest counter %d, want 5", most)
	}
}

func BenchmarkEncodeWindowApproxDirect(b *testing.B) {
	e, err := New(Config{Dim: 4096, Window: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	seq := genome.Random(128, rng.New(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.EncodeWindowApprox(seq, i%64)
	}
}

// BenchmarkSlideExact times one exact window two ways at every
// benchmark workload's geometry: the direct fold and the one-base slide
// a stride-1 build takes to every window after a reference's first
// (on bitvec's dispatched slide tier; `make benchsmoke` repeats it on the
// portable tier under -tags purego).
func BenchmarkSlideExact(b *testing.B) {
	const dim, window = 8192, 32
	e, err := New(Config{Dim: dim, Window: window, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	seq := genome.Random(4096+window, rng.New(1))
	dst := hdc.NewHV(dim)
	b.Run("fold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.EncodeWindowExactInto(dst, seq, i%4096)
		}
	})
	b.Run("slide", func(b *testing.B) {
		e.EncodeWindowExactInto(dst, seq, 0)
		for i := 0; i < b.N; i++ {
			if i%4096 == 0 {
				e.EncodeWindowExactInto(dst, seq, 0)
			}
			e.SlideExact(dst, seq, i%4096)
		}
	})
}

// The Into-variant benchmarks are the allocation story of the lookup
// hot path: with caller-owned destinations, steady-state window
// encoding must not allocate at all (allocs/op = 0 in the report).

func BenchmarkEncodeWindowExactInto(b *testing.B) {
	// D8192W32 is every benchmark workload's geometry, so that line is
	// comparable with bench's encoding.exact_us_per_window.
	for _, g := range []struct{ dim, window int }{{4096, 64}, {8192, 32}} {
		b.Run(fmt.Sprintf("D%dW%d", g.dim, g.window), func(b *testing.B) {
			e, err := New(Config{Dim: g.dim, Window: g.window, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			seq := genome.Random(2*g.window, rng.New(1))
			dst := hdc.NewHV(g.dim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.EncodeWindowExactInto(dst, seq, i%g.window)
			}
		})
	}
}

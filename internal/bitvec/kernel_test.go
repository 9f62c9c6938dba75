package bitvec

import (
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func randWords(n int, seed uint64) []uint64 {
	src := rng.New(seed)
	w := make([]uint64, n)
	for i := range w {
		w[i] = src.Uint64()
	}
	return w
}

func TestHammingWordsMatchesVector(t *testing.T) {
	// The flat kernel must agree with a per-word popcount of the XOR on
	// every length, including ones that straddle the unroll block.
	for _, nw := range []int{0, 1, 3, 7, 8, 9, 16, 31, 32, 129} {
		a := randWords(nw, uint64(nw)+1)
		b := randWords(nw, uint64(nw)+1000)
		want := 0
		for i := range a {
			want += bits.OnesCount64(a[i] ^ b[i])
		}
		if got := HammingWords(a, b); got != want {
			t.Fatalf("nw=%d: HammingWords=%d, per-word popcount=%d", nw, got, want)
		}
	}
}

func TestHammingBoundedExact(t *testing.T) {
	const nw = 33 // odd length exercises block + tail
	a := randWords(nw, 5)
	b := randWords(nw, 6)
	full := HammingWords(a, b)
	for _, bound := range []int{-1, 0, full - 1, full, full + 1, nw * 64} {
		d, ok := HammingBounded(a, b, bound)
		if wantOK := full <= bound; ok != wantOK {
			t.Fatalf("bound=%d (full=%d): ok=%v, want %v", bound, full, ok, wantOK)
		}
		if ok && d != full {
			t.Fatalf("bound=%d: accepted distance %d != full %d", bound, d, full)
		}
		if !ok && d <= bound {
			t.Fatalf("bound=%d: abandoned with witness %d not exceeding bound", bound, d)
		}
	}
	// Identical rows pass any non-negative bound with distance 0.
	if d, ok := HammingBounded(a, a, 0); !ok || d != 0 {
		t.Fatalf("self distance = (%d, %v), want (0, true)", d, ok)
	}
}

// Property: the Hamming distance is a metric (identity, symmetry and the
// triangle inequality) at a width past the vector tiers' block.
func TestQuickHammingMetric(t *testing.T) {
	f := func(seed uint64) bool {
		const nw = 21
		a, b, c := randWords(nw, seed), randWords(nw, seed^1), randWords(nw, seed^2)
		ab, ba := HammingWords(a, b), HammingWords(b, a)
		ac, cb := HammingWords(a, c), HammingWords(c, b)
		return ab == ba && ab <= ac+cb && HammingWords(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	HammingWords(make([]uint64, 9), make([]uint64, 8))
}

func TestKernelLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	HammingBounded(make([]uint64, 3), make([]uint64, 4), 10)
}

// The kernel benchmarks mirror a probe over one 8192-bit row.

func BenchmarkHammingWords8192(b *testing.B) {
	x := randWords(128, 1)
	y := randWords(128, 2)
	b.SetBytes(128 * 8 * 2)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += HammingWords(x, y)
	}
	sinkHole = sink
}

// BenchmarkHammingBoundedAbandon measures the common probe case: a
// random (non-matching) row against a bound far below D/2, abandoned
// after the first block.
func BenchmarkHammingBoundedAbandon(b *testing.B) {
	x := randWords(128, 1)
	y := randWords(128, 2)
	sink := 0
	for i := 0; i < b.N; i++ {
		d, _ := HammingBounded(x, y, 512) // full distance ≈ 4096
		sink += d
	}
	sinkHole = sink
}

// BenchmarkHammingBoundedPass measures the worst case: a bound the row
// never exceeds, so the whole row is scanned plus the per-block compare.
func BenchmarkHammingBoundedPass(b *testing.B) {
	x := randWords(128, 1)
	y := randWords(128, 2)
	b.SetBytes(128 * 8 * 2)
	sink := 0
	for i := 0; i < b.N; i++ {
		d, _ := HammingBounded(x, y, 8192)
		sink += d
	}
	sinkHole = sink
}

var sinkHole int

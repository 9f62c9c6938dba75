package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams from equal seeds diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 collisions between distinct seeds", same)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the canonical SplitMix64 with seed 0.
	state := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4,
		0x06c45d188009454f, 0xf88bb8a8724c81ec,
	}
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Fatalf("SplitMix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	s := New(1)
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			s.Intn(n)
		}()
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	// Chi-squared with 9 dof; 99.9% critical value ≈ 27.9.
	expected := float64(trials) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.9 {
		t.Fatalf("chi2 = %.2f exceeds 27.9; counts %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(13)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ≈0.5", mean)
	}
}

func TestBoolBalance(t *testing.T) {
	s := New(19)
	trues := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if s.Bool() {
			trues++
		}
	}
	if frac := float64(trues) / trials; math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("Bool true fraction = %v", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(31)
	a := parent.Fork(1)
	b := parent.Fork(2)
	collisions := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("forked streams collide %d/100", collisions)
	}
}

func TestForkDeterministic(t *testing.T) {
	a := New(99).Fork(7)
	b := New(99).Fork(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical forks diverged")
		}
	}
}

// Property: Intn never exceeds its bound for arbitrary seeds and bounds.
func TestQuickIntnBounds(t *testing.T) {
	f := func(seed uint64, bound uint16) bool {
		n := int(bound)%1000 + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Intn(1000003)
	}
}

package baseline

import (
	"testing"
	"testing/quick"

	"repro/internal/genome"
	"repro/internal/rng"
)

func TestMyersExactWhenKZero(t *testing.T) {
	text := genome.MustFromString("ACGTACGTTACGACGT")
	pat := genome.MustFromString("ACGT")
	occ, _ := Myers{}.Find(text, pat, 0)
	wantEnds := map[int]bool{4: true, 8: true, 16: true}
	if len(occ) != 3 {
		t.Fatalf("got %v", occ)
	}
	for _, o := range occ {
		if !wantEnds[o.End] || o.Dist != 0 {
			t.Fatalf("unexpected occurrence %+v", o)
		}
	}
}

func TestMyersFindsSubstitutedPattern(t *testing.T) {
	src := rng.New(1)
	text := genome.Random(500, src)
	pat := text.Slice(200, 232)
	mut, _ := genome.SubstituteExactly(pat, 3, src)
	occ, _ := Myers{}.Find(text, mut, 3)
	found := false
	for _, o := range occ {
		if o.End == 232 && o.Dist <= 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("3-substitution pattern not found within k=3: %v", occ)
	}
	// With k=2 the same pattern must not match at that position unless
	// indels yield a cheaper alignment (distance can only be ≥ reported).
	occ2, _ := Myers{}.Find(text, mut, 2)
	for _, o := range occ2 {
		if o.End == 232 && o.Dist > 2 {
			t.Fatalf("occurrence beyond budget reported: %+v", o)
		}
	}
}

func TestMyersMatchesSellersDP(t *testing.T) {
	src := rng.New(2)
	for trial := 0; trial < 10; trial++ {
		text := genome.Random(200, src)
		pat := genome.Random(16, src)
		k := trial % 5
		my, _ := Myers{}.Find(text, pat, k)
		dp, _ := SellersDP{}.Find(text, pat, k)
		if len(my) != len(dp) {
			t.Fatalf("trial %d: Myers %d occurrences vs DP %d", trial, len(my), len(dp))
		}
		for i := range my {
			if my[i] != dp[i] {
				t.Fatalf("trial %d: occurrence %d differs: %+v vs %+v", trial, i, my[i], dp[i])
			}
		}
	}
}

// Property: Myers and Sellers agree on arbitrary inputs.
func TestQuickMyersEqualsSellers(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		src := rng.New(seed)
		text := genome.Random(120, src)
		pat := genome.Random(int(kRaw)%30+2, src)
		k := int(kRaw) % 4
		my, _ := Myers{}.Find(text, pat, k)
		dp, _ := SellersDP{}.Find(text, pat, k)
		if len(my) != len(dp) {
			return false
		}
		for i := range my {
			if my[i] != dp[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMyersPanics(t *testing.T) {
	text := genome.Random(100, rng.New(3))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("pattern > 64 did not panic")
			}
		}()
		Myers{}.Find(text, genome.Random(65, rng.New(4)), 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative k did not panic")
			}
		}()
		Myers{}.Find(text, genome.Random(10, rng.New(5)), -1)
	}()
}

func TestSellersDPNegativeKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative k did not panic")
		}
	}()
	SellersDP{}.Find(genome.Random(10, rng.New(7)), genome.Random(4, rng.New(8)), -1)
}

func TestOpCountsScale(t *testing.T) {
	src := rng.New(9)
	text := genome.Random(5000, src)
	pat := genome.Random(32, src)
	_, myOps := Myers{}.Find(text, pat, 2)
	_, dpOps := SellersDP{}.Find(text, pat, 2)
	if myOps != text.Len() {
		t.Fatalf("Myers ops %d != n", myOps)
	}
	if dpOps != text.Len()*pat.Len() {
		t.Fatalf("DP ops %d != n·m", dpOps)
	}
}

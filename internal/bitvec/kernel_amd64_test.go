//go:build amd64 && !purego

package bitvec

import (
	"slices"
	"testing"
)

// The dispatch wrappers (hammingBlocks, scanGroups, …) pick the
// fastest tier the host supports, so on an AVX-512 machine the AVX2
// kernels would never run under test. These pins call each tier's
// assembly directly, gated on its own feature bit, so every kernel the
// binary carries is checked against the portable scalar loop.

// TestHammingAVX2MatchesScalar pins the AVX2 nibble-LUT kernel,
// concentrating on the byte-accumulator flush edges: runs of exactly
// 15 blocks (the most a flush interval holds), one block past it, and
// all-ones operands that drive every byte lane to its 16-per-block
// maximum (15·16 = 240, the closest the accumulator gets to
// overflowing).
func TestHammingAVX2MatchesScalar(t *testing.T) {
	if !useAccel {
		t.Skip("no AVX2 on this machine")
	}
	for _, nw := range []int{8, 16, 64, 112, 120, 128, 136, 1024} {
		a := randWords(nw, uint64(nw))
		b := randWords(nw, uint64(nw)*3+1)
		if got, want := hammingAVX2(&a[0], &b[0], nw/kernelBlock), hammingScalar(a, b); got != want {
			t.Errorf("nw=%d: AVX2=%d, scalar=%d", nw, got, want)
		}
	}
	for _, nw := range []int{120, 128} { // 15 blocks and 16 blocks, worst-case density
		ones := make([]uint64, nw)
		for i := range ones {
			ones[i] = ^uint64(0)
		}
		zeros := make([]uint64, nw)
		if got := hammingAVX2(&ones[0], &zeros[0], nw/kernelBlock); got != nw*64 {
			t.Errorf("nw=%d all-ones: AVX2=%d, want %d", nw, got, nw*64)
		}
		if got := hammingAVX2(&ones[0], &ones[0], nw/kernelBlock); got != 0 {
			t.Errorf("nw=%d self: AVX2=%d, want 0", nw, got)
		}
	}
}

// TestHammingPopcntAVX512MatchesScalar pins the AVX-512 hardware
// popcount kernel on the unroll edges: odd and even block counts (the
// loop runs pairs with a one-block tail) and all-ones density.
func TestHammingPopcntAVX512MatchesScalar(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX-512 VPOPCNTDQ on this machine")
	}
	for _, nw := range []int{8, 16, 24, 64, 120, 128, 136, 1024} {
		a := randWords(nw, uint64(nw)+1)
		b := randWords(nw, uint64(nw)*5+2)
		if got, want := hammingPopcntAVX512(&a[0], &b[0], nw/kernelBlock), hammingScalar(a, b); got != want {
			t.Errorf("nw=%d: AVX512=%d, scalar=%d", nw, got, want)
		}
	}
	ones := make([]uint64, 128)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	zeros := make([]uint64, 128)
	if got := hammingPopcntAVX512(&ones[0], &zeros[0], 16); got != 128*64 {
		t.Errorf("all-ones: AVX512=%d, want %d", got, 128*64)
	}
	if got := hammingPopcntAVX512(&ones[0], &ones[0], 16); got != 0 {
		t.Errorf("self: AVX512=%d, want 0", got)
	}
}

// scanTiers returns the range kernel's vector group tiers the host
// supports, by name.
func scanTiers() map[string]groupScan {
	tiers := map[string]groupScan{}
	if useAccel {
		tiers["avx2"] = scanGroupsAVX2Block
	}
	if useAVX512 {
		tiers["avx512"] = scanGroupsAVX512Block
	}
	return tiers
}

// TestScanPlaneTiersMatchHammingWords pins each vector group tier the
// host supports to HammingWords for every query count 1–8, which is
// every one of the AVX-512 tier's loops. The widths cover the AVX2
// tier's 31-line runs (31 and 32 lines, and 62 and 63) and the sketch
// widths of the two workload geometries.
func TestScanPlaneTiersMatchHammingWords(t *testing.T) {
	tiers := scanTiers()
	if len(tiers) == 0 {
		t.Skip("no vector kernels on this machine")
	}
	for name, tier := range tiers {
		checkScanPlane(t, name, []int{1, 8, 16, 31, 32, 40, 62, 63, 128}, tier)
		checkScanRoom(t, name, tier)
	}
}

// foldTier is one vector tier of the row-fold kernels: its assembly
// behind the argument set-up MajorityRows, XorRows and MajorityRowsEq
// do. parity is nil on the AVX2 tier, which has no parity kernel.
type foldTier struct {
	major  majorityFold
	parity parityFold
	eq     eqFold
}

// foldTiers returns the row-fold tiers the host supports, by name.
func foldTiers() map[string]foldTier {
	type majorityAsm = func(out, table *uint64, idx *int32, n, nblocks int, tie *uint64, tieMask uint64, seed *[8]uint64, eq *uint64)
	wrap := func(major majorityAsm) majorityFold {
		return func(out, table []uint64, idx []int32, w int, tie []uint64, tieOn bool) {
			seed := foldSeed(len(idx))
			major(&out[0], &table[0], &idx[0], len(idx), w/kernelBlock, &tie[0], foldTieMask(len(idx), tieOn), &seed, nil)
		}
	}
	wrapEq := func(major majorityAsm) eqFold {
		return func(out, eq, table []uint64, idx []int32, w int) {
			seed := foldSeed(len(idx))
			major(&out[0], &table[0], &idx[0], len(idx), w/kernelBlock, &eq[0], 0, &seed, &eq[0])
		}
	}
	tiers := map[string]foldTier{}
	if useAccel {
		tiers["avx2"] = foldTier{major: wrap(majorityRowsAVX2), eq: wrapEq(majorityRowsAVX2)}
	}
	if useAVX512 {
		tiers["avx512"] = foldTier{wrap(majorityRowsAVX512), func(out, table []uint64, idx []int32, w int) {
			xorRowsAVX512(&out[0], &table[0], &idx[0], len(idx), w/kernelBlock)
		}, wrapEq(majorityRowsAVX512)}
	}
	return tiers
}

// TestFoldRowsTiersMatchPortable calls each row-fold tier's assembly
// directly and holds it to the portable tier, bit for bit: over one to
// seventeen column blocks, and over row counts on every adder-tree
// remainder, either side of each plane-count boundary and up to the
// 255 rows eight seeded planes can count. Repeated indices drive every
// lane to 0 or n (the biased count's extremes, 127 − ⌊n/2⌋ and 127 +
// ⌈n/2⌉), complementary rows put every lane on the tie or beside it,
// and all-ones / all-zero tables saturate the adder tree.
func TestFoldRowsTiersMatchPortable(t *testing.T) {
	tiers := foldTiers()
	if len(tiers) == 0 {
		t.Skip("no vector kernels on this machine")
	}
	for name, tier := range tiers {
		checkEqFolds(t, name, []int{8, 16, 128}, []int{1, 2, 7, 8, 9, 16, 31, 32, 63, 64, 255}, tier.eq)
		for _, w := range []int{8, 16, 64, 128, 136} {
			for _, n := range []int{1, 2, 7, 8, 9, 31, 32, 33, 48, 63, 64, 127, 254, 255} {
				for _, kind := range foldKinds {
					table, idx, tie := foldCase(kind, w, n, uint64(w)*257+uint64(n))
					for _, tieOn := range []bool{false, true} {
						got, want := randWords(w, 3), make([]uint64, w)
						tier.major(got, table, idx, w, tie, tieOn)
						portableMajority(want, table, idx, w, tie, tieOn)
						if !slices.Equal(got, want) {
							t.Fatalf("%s majority w=%d n=%d %s tieOn=%v: differs from the portable tier in %d bits",
								name, w, n, kind, tieOn, HammingWords(got, want))
						}
					}
					if tier.parity == nil {
						continue
					}
					got, want := randWords(w, 4), randWords(w, 4)
					tier.parity(got, table, idx, w)
					xorRowsGeneric(want, table, idx, w)
					if !slices.Equal(got, want) {
						t.Fatalf("%s parity w=%d n=%d %s: differs from the portable tier in %d bits",
							name, w, n, kind, HammingWords(got, want))
					}
				}
			}
		}
	}
}

// BenchmarkFoldRowsTiers times every vector tier the binary carries at
// the benchmark geometry, beside BenchmarkFoldRows' portable line — the
// numbers behind keeping or leaving out a tier (DESIGN.md §8.2).
func BenchmarkFoldRowsTiers(b *testing.B) {
	tiers := foldTiers()
	for _, name := range []string{"avx2", "avx512"} {
		if tier, ok := tiers[name]; ok {
			benchFolds(b, name, tier.major, tier.parity)
		}
	}
}

// slideTiers and depositTiers return the assembly tiers of SlideRows and
// DepositBits the host supports, by name, behind the argument set-up
// their wrappers do.
func slideTiers() map[string]slideFn {
	tiers := map[string]slideFn{}
	if useAVX512 {
		tiers["avx512"] = func(out, table []uint64, a, b int32, w int) {
			slideRowsAVX512(&out[0], &table[int(a)*w], &table[int(b)*w], w/kernelBlock)
		}
	}
	return tiers
}

func depositTiers() map[string]depositFn {
	tiers := map[string]depositFn{}
	if useBMI2 {
		tiers["bmi2"] = func(out, mask, stream []uint64) {
			depositBitsBMI2(&out[0], &mask[0], &stream[0], len(mask))
		}
	}
	return tiers
}

// TestSlideDepositTiersMatchNaive holds each assembly tier of SlideRows
// (at widths of whole 64-byte blocks) and DepositBits to the
// definitions, called directly.
func TestSlideDepositTiersMatchNaive(t *testing.T) {
	for name, slide := range slideTiers() {
		checkSlide(t, name, []int{8, 16, 24, 64, 128, 136}, slide)
	}
	for name, deposit := range depositTiers() {
		checkDeposit(t, name, deposit)
	}
}

// BenchmarkSlideDepositTiers times each assembly tier beside
// BenchmarkSlideRows' and BenchmarkDepositBits' portable lines.
func BenchmarkSlideDepositTiers(b *testing.B) {
	for name, slide := range slideTiers() {
		benchSlide(b, name, slide)
	}
	for name, deposit := range depositTiers() {
		benchDeposit(b, name, deposit)
	}
}

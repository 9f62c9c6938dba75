//go:build amd64 && !purego

package bitvec

import (
	"slices"
	"testing"
)

// The dispatch wrappers (hammingBlocks, scanPlaneBlocks, …) pick the
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

// scanTiers returns the range-kernel tiers the host supports, by name,
// each behind a wrapper that finishes the rows a tier leaves over
// exactly as ScanPlane does.
func scanTiers() map[string]planeScan {
	tail := func(plane []uint64, w int, q []uint64, bound, lo, hi, n int, out []int32) int {
		for i := lo; i < hi; i++ {
			if HammingWords(plane[i*w:(i+1)*w], q) <= bound {
				out[n] = int32(i)
				n++
			}
		}
		return n
	}
	tiers := map[string]planeScan{}
	if useAccel {
		tiers["avx2"] = func(plane []uint64, w int, q []uint64, bound, lo, hi int, out []int32) int {
			if bound < 0 || lo == hi {
				return 0
			}
			return scanPlaneAVX2(&plane[lo*w], hi-lo, w/kernelBlock, &q[0], bound, lo, &out[0])
		}
	}
	if useAVX512 {
		tiers["avx512"] = func(plane []uint64, w int, q []uint64, bound, lo, hi int, out []int32) int {
			groups := (hi - lo) / planeGroup
			if bound < 0 || groups == 0 {
				return tail(plane, w, q, bound, lo, hi, 0, out)
			}
			n := scanPlaneAVX512(&plane[lo*w], groups, w/kernelBlock, &q[0], bound, lo, &out[0])
			return tail(plane, w, q, bound, lo+groups*planeGroup, hi, n, out)
		}
	}
	return tiers
}

// TestScanPlaneTiersMatchHammingWords pins each range-kernel tier the
// host supports to HammingWords row by row. The widths cover the AVX2
// flush edges (15 and 16 blocks) and the sketch width of the default
// geometry; checkScanPlane's slot-order case pins the AVX-512 tier's
// shuffle tree.
func TestScanPlaneTiersMatchHammingWords(t *testing.T) {
	tiers := scanTiers()
	if len(tiers) == 0 {
		t.Skip("no vector kernels on this machine")
	}
	for name, scan := range tiers {
		checkScanPlane(t, name, []int{8, 16, 24, 40, 64, 120, 128, 136, 256}, scan)
	}
}

// foldTier is one vector tier of the row-fold kernels: its assembly
// behind the argument set-up MajorityRows and XorRows do. parity is nil
// on the AVX2 tier, which has no parity kernel.
type foldTier struct {
	major  majorityFold
	parity parityFold
}

// foldTiers returns the row-fold tiers the host supports, by name.
func foldTiers() map[string]foldTier {
	wrap := func(major func(out, table *uint64, idx *int32, n, nblocks int, tie *uint64, tieMask uint64, seed *[8]uint64)) majorityFold {
		return func(out, table []uint64, idx []int32, w int, tie []uint64, tieOn bool) {
			seed := foldSeed(len(idx))
			major(&out[0], &table[0], &idx[0], len(idx), w/kernelBlock, &tie[0], foldTieMask(len(idx), tieOn), &seed)
		}
	}
	tiers := map[string]foldTier{}
	if useAccel {
		tiers["avx2"] = foldTier{major: wrap(majorityRowsAVX2)}
	}
	if useAVX512 {
		tiers["avx512"] = foldTier{wrap(majorityRowsAVX512), func(out, table []uint64, idx []int32, w int) {
			xorRowsAVX512(&out[0], &table[0], &idx[0], len(idx), w/kernelBlock)
		}}
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
// numbers behind keeping or leaving out a tier (DESIGN.md §16).
func BenchmarkFoldRowsTiers(b *testing.B) {
	tiers := foldTiers()
	for _, name := range []string{"avx2", "avx512"} {
		if tier, ok := tiers[name]; ok {
			benchFolds(b, name, tier.major, tier.parity)
		}
	}
}

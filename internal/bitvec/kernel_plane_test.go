package bitvec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// planeScan is the common shape of ScanPlane and of each tier's
// assembly behind a wrapper, so one checker pins them all.
type planeScan func(plane []uint64, w int, q []uint64, bound, lo, hi int, out []int32) int

// planeCase builds a plane of rows random w-word rows in which every
// fifth row is a near copy of q (a few flipped bits) and row 2 is q
// itself, so selective bounds have something to pass.
func planeCase(rows, w int, seed uint64) (plane, q []uint64) {
	src := rng.New(seed)
	q = randWords(w, seed+1)
	plane = randWords(rows*w, seed+2)
	for i := 0; i < rows; i += 5 {
		row := plane[i*w : (i+1)*w]
		copy(row, q)
		for f := 0; f <= i%7; f++ {
			row[src.Intn(w)] ^= 1 << uint(src.Intn(64))
		}
	}
	if rows > 2 {
		copy(plane[2*w:3*w], q)
	}
	return plane, q
}

// checkScanPlane holds scan to HammingWords row by row over ranges with
// odd ends, empty ranges, and bounds that are negative, zero, tight
// around the planted rows, at the bulk of the random rows, and above
// every distance.
func checkScanPlane(t *testing.T, name string, widths []int, scan planeScan) {
	t.Helper()
	const rows = 37
	for _, w := range widths {
		plane, q := planeCase(rows, w, uint64(w)*31+7)
		dist := make([]int, rows)
		for i := range dist {
			dist[i] = HammingWords(plane[i*w:(i+1)*w], q)
		}
		for _, r := range [][2]int{{0, rows}, {1, rows - 1}, {3, 3}, {5, 14}, {7, 24}, {16, 17}, {0, 8}, {29, rows}} {
			lo, hi := r[0], r[1]
			for _, bound := range []int{-1, 0, 1, 7, 32*w - 8, 32 * w, 64 * w} {
				out := make([]int32, hi-lo)
				n := scan(plane, w, q, bound, lo, hi, out)
				var want []int32
				for i := lo; i < hi; i++ {
					if dist[i] <= bound {
						want = append(want, int32(i))
					}
				}
				if fmt.Sprint(out[:n]) != fmt.Sprint(want) {
					t.Fatalf("%s w=%d rows [%d,%d) bound=%d: survivors %v, want %v", name, w, lo, hi, bound, out[:n], want)
				}
			}
		}
		// Worst-case density: every bit differs, so every byte lane of a
		// nibble-LUT accumulator takes its maximum per block.
		for i := range plane {
			plane[i] = ^uint64(0)
		}
		zero, out := make([]uint64, w), make([]int32, rows)
		if n := scan(plane, w, zero, 64*w, 0, rows, out); n != rows {
			t.Fatalf("%s w=%d all-ones: %d rows within %d, want all %d", name, w, n, 64*w, rows)
		}
		if n := scan(plane, w, zero, 64*w-1, 0, rows, out); n != 0 {
			t.Fatalf("%s w=%d all-ones: %d rows within %d, want none", name, w, n, 64*w-1)
		}
		checkSlotOrder(t, name, w, scan)
	}
}

// checkSlotOrder scans one group of eight rows whose distances are
// eight distinct multiples of 8·w, in unsorted order, under every bound
// that admits the k nearest of them. The admitted sets form a chain
// that tells every row apart, so a reduction that swaps any two rows'
// slots reports a wrong set at some bound.
func checkSlotOrder(t *testing.T, name string, w int, scan planeScan) {
	t.Helper()
	rank := [8]int{5, 1, 7, 3, 0, 6, 2, 4} // row r is at distance 8·w·rank[r]
	group, zero := make([]uint64, 8*w), make([]uint64, w)
	for r, k := range rank {
		for b := 0; b < 8*w*k; b++ { // the row's first 8·w·k bits, across its blocks
			group[r*w+b/64] |= 1 << uint(b%64)
		}
	}
	out := make([]int32, 8)
	for k := range rank {
		var want []int32
		for r, rk := range rank {
			if rk <= k {
				want = append(want, int32(r))
			}
		}
		n := scan(group, w, zero, 8*w*k, 0, 8, out)
		if fmt.Sprint(out[:n]) != fmt.Sprint(want) {
			t.Fatalf("%s w=%d slot order, bound %d: survivors %v, want %v", name, w, 8*w*k, out[:n], want)
		}
	}
}

// TestScanPlaneMatchesHammingWords pins the dispatched range kernel,
// over widths that are whole kernel blocks (the vector tiers) and
// widths that are not (the per-row fallback).
func TestScanPlaneMatchesHammingWords(t *testing.T) {
	checkScanPlane(t, "dispatch", []int{1, 5, 8, 16, 24, 33, 40, 64, 120, 128, 136}, ScanPlane)
}

func TestScanPlanePanics(t *testing.T) {
	plane, q := planeCase(10, 8, 3)
	out := make([]int32, 10)
	for name, fn := range map[string]func(){
		"zero width":      func() { ScanPlane(plane, 0, nil, 5, 0, 1, out) },
		"query mismatch":  func() { ScanPlane(plane, 8, q[:7], 5, 0, 1, out) },
		"negative lo":     func() { ScanPlane(plane, 8, q, 5, -1, 1, out) },
		"inverted range":  func() { ScanPlane(plane, 8, q, 5, 3, 2, out) },
		"past the plane":  func() { ScanPlane(plane, 8, q, 5, 0, 11, out) },
		"short survivors": func() { ScanPlane(plane, 8, q, 5, 0, 10, out[:9]) },
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

// FuzzScanPlane holds the dispatched range kernel to the per-row
// distance on arbitrary geometry, range and bound.
func FuzzScanPlane(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(37), uint8(1), uint8(36), int16(1230))
	f.Add(uint64(2), uint8(128), uint8(9), uint8(0), uint8(9), int16(4096))
	f.Add(uint64(3), uint8(5), uint8(3), uint8(2), uint8(2), int16(-1))
	f.Fuzz(func(t *testing.T, seed uint64, w8, rows8, lo8, hi8 uint8, bound16 int16) {
		w, rows := int(w8)%136+1, int(rows8)%40+1
		lo, hi := int(lo8)%(rows+1), int(hi8)%(rows+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		plane, q := planeCase(rows, w, seed)
		bound := int(bound16)
		out := make([]int32, hi-lo)
		n := ScanPlane(plane, w, q, bound, lo, hi, out)
		k := 0
		for i := lo; i < hi; i++ {
			if HammingWords(plane[i*w:(i+1)*w], q) > bound {
				continue
			}
			if k >= n || out[k] != int32(i) {
				t.Fatalf("w=%d rows [%d,%d) bound=%d: survivors %v miss row %d", w, lo, hi, bound, out[:n], i)
			}
			k++
		}
		if k != n {
			t.Fatalf("w=%d rows [%d,%d) bound=%d: %d survivors, want %d", w, lo, hi, bound, n, k)
		}
	})
}

// BenchmarkScanPlane times the range kernel over an 8192-row plane at
// the sketch width the model picks for D = 8192, C = 16 and at the full
// row, under a bound that passes a few percent of random rows.
func BenchmarkScanPlane(b *testing.B) {
	const rows = 8192
	for _, w := range []int{40, 128} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			plane := randWords(rows*w, 1)
			q := randWords(w, 2)
			out := make([]int32, rows)
			bound := 32*w - int(8*math.Sqrt(float64(w))) // two sigma under a random row's mean
			b.SetBytes(rows * int64(w) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ScanPlane(plane, w, q, bound, 0, rows, out)
			}
		})
	}
}

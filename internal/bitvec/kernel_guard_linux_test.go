//go:build amd64 && !purego

package bitvec

import (
	"fmt"
	"slices"
	"syscall"
	"testing"
	"unsafe"
)

// The assembly kernels index their operands with no bounds check, so a
// block counted one too many reads or writes past the end of a slice —
// silently, wherever the slice sits inside a larger allocation. These
// tests place every operand so that it ends exactly where a PROT_NONE
// page begins: one byte too far faults the test binary.

// guarded returns n zeroed elements of T that end at the first byte of
// an inaccessible page.
func guarded[T uint64 | int32](t *testing.T, n int) []T {
	t.Helper()
	page := syscall.Getpagesize()
	size := n * int(unsafe.Sizeof(T(0)))
	span := (size+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, span, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[span-page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[span-page-size])), n)
}

// guardedCopy is guarded holding a copy of src.
func guardedCopy[T uint64 | int32](t *testing.T, src []T) []T {
	t.Helper()
	g := guarded[T](t, len(src))
	copy(g, src)
	return g
}

// TestKernelsStopAtGuardPage runs the distance kernels, the range kernel,
// the row folds, the slide, the deposit and the lane-match kernel, through their dispatch and
// through every tier the host has, on operands that end at a guard page.
func TestKernelsStopAtGuardPage(t *testing.T) {
	for _, nw := range []int{8, 15, 64, 72, 136, 512} {
		a, b := guardedCopy(t, randWords(nw, uint64(nw))), guardedCopy(t, randWords(nw, uint64(nw)+1))
		want := hammingScalar(a, b)
		if got := HammingWords(a, b); got != want {
			t.Errorf("HammingWords nw=%d: %d, want %d", nw, got, want)
		}
		if got, ok := HammingBounded(a, b, 64*nw); !ok || got != want {
			t.Errorf("HammingBounded nw=%d: (%d, %v), want (%d, true)", nw, got, ok, want)
		}
		nb := nw / kernelBlock
		if useAccel && hammingAVX2(&a[0], &b[0], nb) != hammingScalar(a[:nb*kernelBlock], b[:nb*kernelBlock]) {
			t.Errorf("hammingAVX2 nw=%d differs", nw)
		}
		if useAVX512 && hammingPopcntAVX512(&a[0], &b[0], nb) != hammingScalar(a[:nb*kernelBlock], b[:nb*kernelBlock]) {
			t.Errorf("hammingPopcntAVX512 nw=%d differs", nw)
		}
	}

	// Planes of 8 and 16 rows end with a full group, 11 with three tail
	// rows. Each query, the vector tiers' copy of the queries at their
	// stride and the survivor rooms end at pages too, and on a plane of
	// ScanRoom + 8 rows that all pass, the group that fills every query's
	// room to its last entry is followed by one the kernel must leave to
	// the next call.
	scans := scanTiers()
	scans["dispatch"] = func(b *QueryBlock, plane []uint64, g0, ngroups, bound int) int {
		return scanGroups(b, plane, g0, ngroups, bound)
	}
	for _, w := range []int{8, 40} {
		for _, rows := range []int{8, 11, 16, ScanRoom + 8} {
			src, qs := blockCase(rows, w, MaxMultiQueries, uint64(rows*w))
			plane := guardedCopy(t, grouped(src, w))
			for _, k := range []int{1, 3, MaxMultiQueries} {
				want := wantHits(src, w, qs[:k], 64*w, 0, rows)
				for name, tier := range scans {
					b := newBlock(qs[:k], w)
					for q := range b.qs[:k] {
						b.qs[q] = guardedCopy(t, qs[q])
					}
					b.qi = guarded[uint64](t, queryStride(k)*w)
					b.rows, b.dists = guarded[int32](t, len(b.rows)), guarded[int32](t, len(b.dists))
					if got := scanAll(t, b, plane, 64*w, 0, rows, tier); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s w=%d rows=%d k=%d: survivors of an all-pass bound differ from HammingWords", name, w, rows, k)
					}
				}
			}
		}
	}

	// Four rows, named so that the last row — the one that ends at the
	// guard page — is folded: one row, a group of eight plus one, and
	// two groups.
	folds := foldTiers()
	folds["dispatch"] = foldTier{MajorityRows, XorRows, MajorityRowsEq}
	for _, w := range []int{8, 16} {
		table, tie := guardedCopy(t, randWords(4*w, uint64(w))), guardedCopy(t, randWords(w, 7))
		for _, n := range []int{1, 9, 16} {
			src := make([]int32, n)
			for j := range src {
				src[j] = int32(3 - j%4)
			}
			idx := guardedCopy(t, src)
			major, parity := make([]uint64, w), make([]uint64, w)
			portableMajority(major, table, idx, w, tie, true)
			xorRowsGeneric(parity, table, idx, w)
			for name, tier := range folds {
				out := guarded[uint64](t, w)
				if tier.major(out, table, idx, w, tie, true); !slices.Equal(out, major) {
					t.Errorf("%s majority w=%d n=%d differs from the portable tier", name, w, n)
				}
				eq, wantOut, wantEq := guarded[uint64](t, w), make([]uint64, w), make([]uint64, w)
				portableEq(wantOut, wantEq, table, idx, w)
				if tier.eq(out, eq, table, idx, w); !slices.Equal(out, wantOut) || !slices.Equal(eq, wantEq) {
					t.Errorf("%s eq fold w=%d n=%d differs from the portable tier", name, w, n)
				}
				if tier.parity == nil {
					continue
				}
				clear(out)
				if tier.parity(out, table, idx, w); !slices.Equal(out, parity) {
					t.Errorf("%s parity w=%d n=%d differs from the portable tier", name, w, n)
				}
			}
		}
	}

	// The slide reads the block after the current one until the last,
	// and the deposit clamps its second stream load to the last word.
	slides := slideTiers()
	slides["dispatch"] = SlideRows
	for _, w := range []int{8, 16} {
		table := guardedCopy(t, randWords(4*w, uint64(w)+3))
		for name, slide := range slides {
			out := guardedCopy(t, randWords(w, 5))
			want := naiveSlide(out, table, 0, 3, w)
			if slide(out, table, 0, 3, w); !slices.Equal(out, want) {
				t.Errorf("%s slide w=%d differs from XOR-then-rotate", name, w)
			}
		}
	}
	deposits := depositTiers()
	deposits["dispatch"] = DepositBits
	for _, w := range []int{1, 8, 9} {
		for _, kind := range []string{"ones", "ties"} {
			m, s := depositCase(kind, w, uint64(w))
			mask, stream := guardedCopy(t, m), guardedCopy(t, s)
			for name, deposit := range deposits {
				out := guarded[uint64](t, w)
				if deposit(out, mask, stream); !slices.Equal(out, naiveDeposit(make([]uint64, w), mask, stream)) {
					t.Errorf("%s deposit w=%d %s differs from the lane-at-a-time deposit", name, w, kind)
				}
			}
		}
	}

	// The lane-match kernel reads words[8g] as the last block's upper
	// word, and on all-A text every block survives, so the survivor
	// stores reach the end of a room of 8g entries; a room of one group
	// ends the stores of every call at the page.
	for _, g := range []int{1, 2, 9} {
		for _, kind := range []string{"all-A", "random"} {
			src, key := laneText(kind, g, uint64(g))
			words := guardedCopy(t, src)
			for _, room := range []int{LaneGroup, g * LaneGroup} {
				name := fmt.Sprintf("lane match %s g=%d room=%d", kind, g, room)
				checkLaneMatch(t, name, words, key, guarded[int32](t, room), guarded[uint64](t, room))
			}
		}
	}
}

//go:build amd64 && !purego

package bitvec

import (
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

// TestKernelsStopAtGuardPage runs the distance kernels, the range kernel
// and the row folds, through their dispatch and through every tier the
// host has, on operands that end at a guard page.
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

	// 8 and 16 rows end the plane with a full AVX-512 group; 11 leaves
	// three rows to the per-row tail.
	scans := scanTiers()
	scans["dispatch"] = ScanPlane
	for _, w := range []int{8, 40} {
		for _, rows := range []int{8, 11, 16} {
			src, q := planeCase(rows, w, uint64(rows*w))
			plane, gq := guardedCopy(t, src), guardedCopy(t, q)
			for name, scan := range scans {
				out := guarded[int32](t, rows)
				if n := scan(plane, w, gq, 64*w, 0, rows, out); n != rows {
					t.Errorf("%s w=%d rows=%d: %d survivors of an all-pass bound, want %d", name, w, rows, n, rows)
				}
			}
		}
	}

	// Four rows, named so that the last row — the one that ends at the
	// guard page — is folded: one row, a group of eight plus one, and
	// two groups.
	folds := foldTiers()
	folds["dispatch"] = foldTier{MajorityRows, XorRows}
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
}

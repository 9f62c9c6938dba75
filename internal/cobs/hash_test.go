package cobs

import (
	"strings"
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

// fnvFold is WindowHash's oracle: the FNV-style fold one At per base.
func fnvFold(seq *genome.Sequence, off, w int) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < w; i++ {
		h ^= uint64(seq.At(off + i))
		h *= 0x100000001b3
	}
	return h
}

// TestWindowHashPinned holds WindowHash, which every saved cobs file's
// signature bits depend on, to the per-base fold at unaligned offsets
// and to values recorded from the per-base implementation.
func TestWindowHashPinned(t *testing.T) {
	src := rng.New(46)
	seq := genome.Random(2200, src)
	for _, w := range []int{1, 31, 32, 33, 64, 1024} {
		for _, off := range []int{0, 1, 13, 31, 33, 95, seq.Len() - w} {
			if got, want := WindowHash(seq, off, w), fnvFold(seq, off, w); got != want {
				t.Fatalf("WindowHash(off %d, w %d) = %#x, per-base fold %#x", off, w, got, want)
			}
		}
	}
	fixed := genome.MustFromString(strings.Repeat("GATTACACCTGAGTCA", 80))
	for _, c := range []struct {
		off, w int
		want   uint64
	}{
		{0, 1, 0xaf63bf4c8601bb45},
		{5, 31, 0x3617aee6bbbd860f},
		{3, 32, 0xf3f3e4a91ac48a8d},
		{17, 33, 0x081e202967235cbf},
		{40, 64, 0xca372d7b1d3df6e5},
		{7, 1024, 0x1c1ee3b2f0c42f25},
	} {
		if got := WindowHash(fixed, c.off, c.w); got != c.want {
			t.Fatalf("WindowHash(fixed, off %d, w %d) = %#016x, want %#016x", c.off, c.w, got, c.want)
		}
	}
}

// TestWindowHashPanicsOutsideSequence checks that a window reaching
// past either end of the sequence panics rather than hashing padding.
func TestWindowHashPanicsOutsideSequence(t *testing.T) {
	seq := genome.MustFromString(strings.Repeat("ACGT", 20)) // 80 bases
	for _, c := range [][2]int{{-1, 4}, {77, 4}, {0, 81}, {40, 41}, {80, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("WindowHash(off %d, w %d) did not panic", c[0], c[1])
				}
			}()
			WindowHash(seq, c[0], c[1])
		}()
	}
}

package cobs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

// KmerBloom is a Bloom filter over the w-mers of a reference set — the
// classical sketch for approximate set membership, and the oracle of
// the signature builder: a cobs column is one such filter per reference,
// transposed. It hashes w-mers with the builder's WindowHash and
// PositionSeed but derives and sets the probe positions with code of
// its own, which TestSignatureMatchesBaselineBloom holds the sealed
// columns to.
type KmerBloom struct {
	bits   []uint64 // the filter's bits, bit i in bit i%64 of word i/64
	w      int      // window (w-mer) length
	hashes int
}

// NewKmerBloomFixed creates a filter with explicit geometry — bits
// filter bits (a positive multiple of 64) probed by hashes positions
// per w-mer — rather than sizing from an expected load, so it has the
// exact shape of a signature row.
func NewKmerBloomFixed(w, bits, hashes int) (*KmerBloom, error) {
	if w <= 0 || w > 1024 {
		return nil, fmt.Errorf("bloom: w-mer length %d out of [1,1024]: %w", w, ErrSizing)
	}
	if bits <= 0 || bits%64 != 0 {
		return nil, fmt.Errorf("bloom: filter length %d must be a positive multiple of 64: %w", bits, ErrSizing)
	}
	if hashes < 1 || hashes > 16 {
		return nil, fmt.Errorf("bloom: hash count %d out of [1,16]: %w", hashes, ErrSizing)
	}
	return &KmerBloom{bits: make([]uint64, bits/64), w: w, hashes: hashes}, nil
}

// SignatureWords exposes the filter's backing words (little-endian bit
// order, read-only) — the signature row the bit-sliced backend
// transposes.
func (b *KmerBloom) SignatureWords() []uint64 { return b.bits }

// positions derives the k probe positions for a w-mer value.
func (b *KmerBloom) positions(v uint64, f func(pos int)) {
	state := v ^ PositionSeed
	for i := 0; i < b.hashes; i++ {
		h := rng.SplitMix64(&state)
		f(int(h % uint64(64*len(b.bits))))
	}
}

// AddSequence inserts every w-mer of seq and returns the number of
// elementary operations (hash probes).
func (b *KmerBloom) AddSequence(seq *genome.Sequence) int {
	ops := 0
	for i := 0; i+b.w <= seq.Len(); i++ {
		b.positions(WindowHash(seq, i, b.w), func(pos int) {
			b.bits[pos/64] |= 1 << (pos % 64)
			ops++
		})
	}
	return ops
}

// Contains reports whether the w-mer at the start of pattern may have
// been inserted (false positives possible, false negatives not), plus
// the probe count. The pattern must be at least w bases long.
func (b *KmerBloom) Contains(pattern *genome.Sequence) (bool, int, error) {
	if pattern.Len() < b.w {
		return false, 0, fmt.Errorf("bloom: pattern shorter than w-mer length %d", b.w)
	}
	ops := 0
	present := true
	b.positions(WindowHash(pattern, 0, b.w), func(pos int) {
		ops++
		if b.bits[pos/64]>>(pos%64)&1 == 0 {
			present = false
		}
	})
	return present, ops, nil
}

func TestKmerBloomFixedValidation(t *testing.T) {
	for name, args := range map[string][3]int{
		"w zero":          {0, 256, 2},
		"w negative":      {-5, 256, 2},
		"w too big":       {2000, 256, 2},
		"bits zero":       {16, 0, 2},
		"bits negative":   {16, -64, 2},
		"bits unaligned":  {16, 100, 2},
		"hashes zero":     {16, 256, 0},
		"hashes over cap": {16, 256, 17},
	} {
		if _, err := NewKmerBloomFixed(args[0], args[1], args[2]); !errors.Is(err, ErrSizing) {
			t.Fatalf("%s: got %v, want ErrSizing", name, err)
		}
	}
	bf, err := NewKmerBloomFixed(16, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	if 64*len(bf.bits) != 256 || bf.hashes != 2 || bf.w != 16 {
		t.Fatalf("geometry drifted: bits=%d hashes=%d w=%d", 64*len(bf.bits), bf.hashes, bf.w)
	}
	if got := len(bf.SignatureWords()); got != 4 {
		t.Fatalf("SignatureWords length %d, want 4", got)
	}
}

func TestKmerBloomNoFalseNegatives(t *testing.T) {
	src := rng.New(311)
	ref := genome.Random(3000, src)
	const w = 20
	bf, err := NewKmerBloomFixed(w, 1<<15, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ops := bf.AddSequence(ref); ops != 4*(3000-w+1) {
		t.Fatalf("%d insert probes, want %d", ops, 4*(3000-w+1))
	}
	// Every present w-mer must be found.
	for i := 0; i < 200; i++ {
		off := src.Intn(ref.Len() - w + 1)
		ok, _, err := bf.Contains(ref.Slice(off, off+w))
		if err != nil || !ok {
			t.Fatalf("false negative at %d (err %v)", off, err)
		}
	}
}

func TestKmerBloomShortPattern(t *testing.T) {
	bf, err := NewKmerBloomFixed(20, 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bf.Contains(genome.Random(5, rng.New(313))); err == nil {
		t.Fatal("short pattern accepted")
	}
}

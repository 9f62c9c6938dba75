package encoding

import (
	"testing"

	"repro/internal/genome"
	"repro/internal/hdc"
)

// fuzzEnc is shared by the fuzz targets; the Encoder is read-only after
// construction, so reuse across iterations is safe. Window is kept small
// relative to Dim so associative decode has a huge statistical margin
// (member correlation ≈ D·√(2/πw) against noise σ ≈ √D) and the fuzzer
// cannot stumble into a legitimate recall failure.
var fuzzEnc = func() *Encoder {
	e, err := New(Config{Dim: 2048, Window: 12, Seed: 7})
	if err != nil {
		panic(err)
	}
	return e
}()

// fuzzSequence maps arbitrary fuzz bytes onto a base sequence at least
// window+3 long, so every input exercises full windows plus sliding.
func fuzzSequence(raw []byte, window int) *genome.Sequence {
	n := len(raw)
	if n < window+3 {
		n = window + 3
	}
	bases := make([]genome.Base, n)
	for i := range bases {
		var b byte
		if len(raw) > 0 {
			b = raw[i%len(raw)]
		}
		bases[i] = genome.Base((b + byte(i)) & 3)
	}
	return genome.FromBases(bases)
}

// FuzzEncodeDecode checks what the encoder promises, on arbitrary
// sequence content and stride:
//
//  1. Memorization recall: every approximate window encoding decodes back
//     to exactly the window it memorized (DecodeWindowApprox inverts
//     EncodeWindowApprox).
//  2. Kernel/oracle agreement: at a small (Dim, Window, Seed) derived
//     from the fuzz bytes — one time in four a multiple of 512, the
//     shape bitvec's vector fold tiers take — the approximate encoder
//     seals every window to the counter oracle's bits and the exact
//     encoder equals the Bind chain.
func FuzzEncodeDecode(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGTACGT"), uint8(1))
	f.Add([]byte("AAAAAAAAAAAAAAAA"), uint8(2)) // repeated base: rotations of one item vector
	f.Add([]byte("GATTACA"), uint8(3))          // shorter than a window: padded
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff, 0x00, 0xa5, 0x5a, 0x13, 0x37, 0xfe, 0xed, 0xbe, 0xef, 0x01, 0x02, 0x03}, uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, strideByte uint8) {
		enc := fuzzEnc
		w := enc.cfg.Window
		seq := fuzzSequence(raw, w)
		if seq.Len() > 4*w {
			seq = seq.Slice(0, 4*w) // bound per-iteration work
		}
		stride := 1 + int(strideByte%5)

		// Leg 1, round trip: encode → decode recovers the window exactly.
		for start := 0; start+w <= seq.Len(); start += stride {
			hv := enc.EncodeWindowApprox(seq, start)
			dec, err := enc.DecodeWindowApprox(hv)
			if err != nil {
				t.Fatalf("decode window at %d: %v", start, err)
			}
			if want := seq.Slice(start, start+w); !dec.Equal(want) {
				t.Fatalf("window at %d decoded to %s, want %s", start, dec, want)
			}
		}

		// Leg 2: kernel == counter oracle at a fuzz-chosen geometry.
		var g [3]byte
		copy(g[:], raw)
		dim := 64 << (g[0] % 4)                // 64, 128, 256, 512
		window := 1 + int(g[1])%min(dim-1, 96) // 1 … 96, and < Dim
		small, err := New(Config{Dim: dim, Window: window, Seed: uint64(g[2])<<8 | uint64(strideByte)})
		if err != nil {
			t.Fatal(err)
		}
		kseq := fuzzSequence(raw, window)
		if kseq.Len() > 2*window+8 {
			kseq = kseq.Slice(0, 2*window+8)
		}
		dst, acc := hdc.NewHV(dim), hdc.NewAcc(dim)
		for start := 0; start+window <= kseq.Len(); start += stride {
			small.EncodeWindowApproxInto(dst, acc, kseq, start)
			if want := oracleEncodeApprox(small, kseq, start); !dst.Equal(want) {
				t.Fatalf("D=%d W=%d: kernel differs from the counter oracle at %d in %d bits",
					dim, window, start, dst.Hamming(want))
			}
			small.EncodeWindowExactInto(dst, kseq, start)
			if want := chainEncodeExact(small, kseq, start); !dst.Equal(want) {
				t.Fatalf("D=%d W=%d: exact encoding differs from the Bind chain at %d in %d bits",
					dim, window, start, dst.Hamming(want))
			}
		}

		// A wrong-dimension decode must be rejected, not mangled.
		if _, err := enc.DecodeWindowApprox(hdc.NewHV(64)); err == nil {
			t.Fatal("decode accepted a hypervector of the wrong dimension")
		}
	})
}

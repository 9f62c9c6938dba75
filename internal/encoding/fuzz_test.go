package encoding

import (
	"testing"

	"repro/internal/genome"
	"repro/internal/hdc"
)

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

// FuzzEncode checks that the encoders' row folds match their
// definitions on arbitrary sequence content and stride: at a small (Dim,
// Window, Seed) derived from the fuzz bytes — one time in four a
// multiple of 512, the shape bitvec's vector fold tiers take — the
// approximate encoder seals every window to the counter oracle's bits,
// the exact encoder equals the Bind chain, and the exact slide from each
// window equals the fold of the next.
func FuzzEncode(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGTACGT"), uint8(1))
	f.Add([]byte("AAAAAAAAAAAAAAAA"), uint8(2)) // repeated base: rotations of one base vector
	f.Add([]byte("GATTACA"), uint8(3))          // shorter than a window: padded
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff, 0x00, 0xa5, 0x5a, 0x13, 0x37, 0xfe, 0xed, 0xbe, 0xef, 0x01, 0x02, 0x03}, uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, strideByte uint8) {
		stride := 1 + int(strideByte%5)
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
			want := chainEncodeExact(small, kseq, start)
			if !dst.Equal(want) {
				t.Fatalf("D=%d W=%d: exact encoding differs from the Bind chain at %d in %d bits",
					dim, window, start, dst.Hamming(want))
			}
			if start+window < kseq.Len() {
				small.SlideExact(want, kseq, start)
				if small.EncodeWindowExactInto(dst, kseq, start+1); !want.Equal(dst) {
					t.Fatalf("D=%d W=%d: slide from %d differs from the fold at %d in %d bits",
						dim, window, start, start+1, dst.Hamming(want))
				}
			}
		}
	})
}

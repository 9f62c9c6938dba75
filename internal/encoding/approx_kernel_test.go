package encoding

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/genome"
	"repro/internal/hdc"
	"repro/internal/rng"
)

// oracleEncodeApprox is the counter-based approximate encoder the
// bit-sliced kernel replaced, kept as the reference: Window × Dim ±1
// counter increments, then sign with one SplitMix64 tie draw per tied
// dimension. It shares no code with the kernel or its tie-word table.
func oracleEncodeApprox(e *Encoder, seq *genome.Sequence, start int) *hdc.HV {
	acc := e.AccumulateWindow(seq, start)
	out := hdc.NewHV(e.cfg.Dim)
	words := out.Words()
	for j, c := range acc.Counts() {
		state := e.tieSeed() + uint64(j)*0x9e3779b97f4a7c15
		if c > 0 || (c == 0 && rng.SplitMix64(&state)&1 == 1) {
			words[j/64] |= 1 << uint(j%64)
		}
	}
	return out
}

// goldenFile holds SHA-256 digests of sealed approximate encodings
// produced by the counter encoder at the commit before the bit-sliced
// kernel landed (cf1b407). Library files, stored calibrations and the
// golden suites all depend on those bits, so the file is never
// regenerated from the kernel; a mismatch is a kernel bug.
type goldenFile struct {
	Source string       `json:"source"`
	Starts []int        `json:"starts"`
	Cases  []goldenCase `json:"cases"`
}

type goldenCase struct {
	Dim    int    `json:"dim"`
	Window int    `json:"window"`
	Seed   uint64 `json:"seed"`
	Seq    string `json:"seq"` // random | homopolymer | cycle
	SHA256 string `json:"sha256"`
}

// goldenSequence builds the case's input: long enough for the largest
// golden start, and a function of (dim, window, kind) only.
func goldenSequence(c goldenCase, maxStart int) *genome.Sequence {
	n := c.Window + maxStart
	switch c.Seq {
	case "random":
		return genome.Random(n, rng.New(uint64(c.Dim)*1000+uint64(c.Window)))
	case "homopolymer": // one base throughout: every row is a rotation of one item vector
		bases := make([]genome.Base, n)
		for i := range bases {
			bases[i] = genome.Base(c.Window & 3)
		}
		return genome.FromBases(bases)
	case "cycle": // ACGTACGT…: all four bases in equal shares
		bases := make([]genome.Base, n)
		for i := range bases {
			bases[i] = genome.Base(i & 3)
		}
		return genome.FromBases(bases)
	}
	panic("unknown golden sequence kind " + c.Seq)
}

// goldenDigest hashes the sealed words of the case's windows at every
// start, in order, as little-endian bytes.
func goldenDigest(c goldenCase, starts []int, encode func(e *Encoder, seq *genome.Sequence, start int) *hdc.HV) (string, error) {
	e, err := New(Config{Dim: c.Dim, Window: c.Window, Seed: c.Seed})
	if err != nil {
		return "", err
	}
	seq := goldenSequence(c, starts[len(starts)-1])
	h := sha256.New()
	var buf [8]byte
	for _, start := range starts {
		for _, w := range encode(e, seq, start).Words() {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func TestApproxGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/approx_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	if len(g.Cases) != 4*10*2*3 {
		t.Fatalf("golden file holds %d cases, want the full 240-case matrix", len(g.Cases))
	}
	for _, c := range g.Cases {
		got, err := goldenDigest(c, g.Starts, (*Encoder).EncodeWindowApprox)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.SHA256 {
			t.Errorf("D=%d W=%d seed=%d %s: sealed words changed (sha256 %s, golden %s)",
				c.Dim, c.Window, c.Seed, c.Seq, got, c.SHA256)
		}
	}
}

// TestApproxKernelMatchesOracle is the differential test: the kernel
// against the counter oracle over every window length whose plane count,
// parity or adder-tree remainder differs, including windows far past
// one word of planes, on sequences that force ties. Dimensions that are
// multiples of 512 with Window ≤ 255 reach bitvec's vector majority
// tiers where the host has them (64, 128 and every Window past 255 stay
// on the portable tier), so both sides of that gate are held to the
// oracle here, not only inside internal/bitvec.
func TestApproxKernelMatchesOracle(t *testing.T) {
	type shape struct{ dim, maxWindow int }
	for _, sh := range []shape{{64, 63}, {128, 127}, {512, 127}, {1024, 70}} {
		for w := 1; w <= sh.maxWindow; w++ {
			checkKernelAgainstOracle(t, sh.dim, w, uint64(w)*31+uint64(sh.dim))
		}
	}
	for _, w := range []int{255, 256, 257, 1000, 2047} { // 8–11 planes
		checkKernelAgainstOracle(t, 2048, w, 5)
	}
	for _, w := range []int{128, 200, 254, 255} { // the vector tiers' last plane
		checkKernelAgainstOracle(t, 4096, w, 9)
	}
}

func checkKernelAgainstOracle(t *testing.T, dim, window int, seed uint64) {
	t.Helper()
	e, err := New(Config{Dim: dim, Window: window, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed ^ 0xd1ff)
	cycle := make([]genome.Base, window+3)
	for i := range cycle {
		cycle[i] = genome.Base(i & 3)
	}
	dst, acc := hdc.NewHV(dim), hdc.NewAcc(dim)
	for _, seq := range []*genome.Sequence{
		genome.Random(window+3, src),
		genome.NewSequence(window + 3), // all A
		genome.FromBases(cycle),
	} {
		for start := 0; start+window <= seq.Len(); start++ {
			want := oracleEncodeApprox(e, seq, start)
			e.EncodeWindowApproxInto(dst, acc, seq, start)
			if !dst.Equal(want) {
				t.Fatalf("D=%d W=%d seed=%d start=%d: kernel differs from the counter oracle in %d bits",
					dim, window, seed, start, dst.Hamming(want))
			}
			if sealed := e.SealLogical(e.AccumulateWindow(seq, start), 0); !sealed.Equal(want) {
				t.Fatalf("D=%d W=%d seed=%d start=%d: SealLogical differs from the counter oracle", dim, window, seed, start)
			}
		}
	}
}

// TestApproxPrefixIsPrefix holds the narrow fold to the full one: at
// every width — whole vector blocks, which the vector tiers take, and
// odd ones, which stay portable — and on both sides of the vector
// tiers' row gate, ApproxPrefix writes exactly the leading words of
// EncodeWindowApproxInto's output, and refuses a width it has no table
// for.
func TestApproxPrefixIsPrefix(t *testing.T) {
	for _, sh := range []struct{ dim, window int }{{8192, 32}, {2048, 24}, {1024, 255}, {1024, 300}} {
		e := testEncoder(t, sh.dim, sh.window)
		src := rng.New(uint64(sh.dim + sh.window))
		full, acc := hdc.NewHV(sh.dim), hdc.NewAcc(sh.dim)
		for _, words := range []int{1, 3, 8, 16, 40, sh.dim / 64} {
			words = min(words, sh.dim/64)
			p := e.ApproxPrefix(words)
			dst := make([]uint64, words)
			seq := genome.Random(sh.window+8, src)
			for start := 0; start+sh.window <= seq.Len(); start++ {
				e.EncodeWindowApproxInto(full, acc, seq, start)
				p.EncodeInto(dst, acc, seq, start)
				for i, w := range dst {
					if w != full.Words()[i] {
						t.Fatalf("D=%d W=%d prefix %d start %d: word %d is %016x, full fold %016x", sh.dim, sh.window, words, start, i, w, full.Words()[i])
					}
				}
			}
		}
	}
	e := testEncoder(t, 1024, 16)
	for _, words := range []int{0, -1, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ApproxPrefix(%d) of 16-word encodings did not panic", words)
				}
			}()
			e.ApproxPrefix(words)
		}()
	}
}

// TestSealLogicalOffset pins the circular-offset contract SealLogical
// keeps: counters stored rotated by off seal to the same hypervector,
// ties included (the tie bit belongs to the logical dimension).
func TestSealLogicalOffset(t *testing.T) {
	e := testEncoder(t, 256, 16)
	seq := genome.Random(16, rng.New(21))
	acc := e.AccumulateWindow(seq, 0)
	want := e.SealLogical(acc, 0)
	for _, off := range []int{1, 63, 64, 100, 255} {
		rotated := hdc.NewAcc(256)
		for j, c := range acc.Counts() {
			rotated.Counts()[(j+off)%256] = c
		}
		if got := e.SealLogical(rotated, off); !got.Equal(want) {
			t.Fatalf("off=%d: sealed bundle depends on the raw offset", off)
		}
	}
}

func TestEncodeWindowApproxIntoDimensionPanics(t *testing.T) {
	e := testEncoder(t, 1024, 16)
	seq := genome.Random(16, rng.New(22))
	for name, call := range map[string]func(){
		"dst":        func() { e.EncodeWindowApproxInto(hdc.NewHV(512), hdc.NewAcc(1024), seq, 0) },
		"acc":        func() { e.EncodeWindowApproxInto(hdc.NewHV(1024), hdc.NewAcc(512), seq, 0) },
		"acc larger": func() { e.EncodeWindowApproxInto(hdc.NewHV(1024), hdc.NewAcc(2048), seq, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("wrong-dimension %s did not panic", name)
				}
			}()
			call()
		}()
	}
}

func BenchmarkEncodeWindowApproxInto(b *testing.B) {
	// D8192W32 is every benchmark workload's geometry, so this line is
	// comparable with bench's encoding.approx_us_per_window.
	for _, g := range []struct{ dim, window int }{{4096, 64}, {8192, 32}, {8192, 48}} {
		b.Run(fmt.Sprintf("D%dW%d", g.dim, g.window), func(b *testing.B) {
			e, err := New(Config{Dim: g.dim, Window: g.window, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			seq := genome.Random(2*g.window, rng.New(1))
			dst, acc := hdc.NewHV(g.dim), hdc.NewAcc(g.dim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.EncodeWindowApproxInto(dst, acc, seq, i%g.window)
			}
		})
	}
}

// AccumulateWindow returns the raw (unsealed) positional-bundle counters
// for the window of seq starting at start: the counter formulation the
// row-fold kernel and SealLogical are tested against.
func (e *Encoder) AccumulateWindow(seq *genome.Sequence, start int) *hdc.Acc {
	e.checkWindow(seq, start)
	acc := hdc.NewAcc(e.cfg.Dim)
	for i := 0; i < e.cfg.Window; i++ {
		acc.Add(e.rot[seq.At(start+i)][i])
	}
	return acc
}

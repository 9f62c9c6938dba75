package genome

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBaseRoundTrip(t *testing.T) {
	for _, b := range []Base{A, C, G, T} {
		got, err := ParseBase(b.Byte())
		if err != nil || got != b {
			t.Fatalf("round trip of %v failed: %v %v", b, got, err)
		}
	}
	if _, err := ParseBase('N'); err == nil {
		t.Fatal("ParseBase accepted ambiguity code N")
	}
	if _, err := ParseBase('x'); err == nil {
		t.Fatal("ParseBase accepted junk")
	}
	if b, err := ParseBase('g'); err != nil || b != G {
		t.Fatal("lowercase not accepted")
	}
}

func TestComplement(t *testing.T) {
	pairs := map[Base]Base{A: T, C: G, G: C, T: A}
	for b, want := range pairs {
		if b.Complement() != want {
			t.Fatalf("complement of %v = %v, want %v", b, b.Complement(), want)
		}
		if b.Complement().Complement() != b {
			t.Fatalf("double complement of %v not identity", b)
		}
	}
}

func TestSequenceSetAt(t *testing.T) {
	// Cross the 32-base word boundary.
	seq := NewSequence(70)
	for i := 0; i < 70; i++ {
		seq.Set(i, Base(i%4))
	}
	for i := 0; i < 70; i++ {
		if seq.At(i) != Base(i%4) {
			t.Fatalf("At(%d) = %v, want %v", i, seq.At(i), Base(i%4))
		}
	}
}

func TestSequenceStringRoundTrip(t *testing.T) {
	const s = "ACGTACGTTTGGCCAATCGA"
	seq := MustFromString(s)
	if seq.String() != s {
		t.Fatalf("round trip: %q != %q", seq.String(), s)
	}
	if seq.Len() != len(s) {
		t.Fatalf("Len = %d", seq.Len())
	}
}

func TestFromStringError(t *testing.T) {
	if _, err := FromString("ACGN"); err == nil {
		t.Fatal("FromString accepted N")
	}
	if !strings.Contains(FromStringErr("ACGN"), "position 3") {
		t.Fatal("error does not pinpoint the offending position")
	}
}

// FromStringErr returns the error text of FromString, for message checks.
func FromStringErr(s string) string {
	_, err := FromString(s)
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestSliceAppend(t *testing.T) {
	seq := MustFromString("ACGTACGTAC")
	mid := seq.Slice(2, 6)
	if mid.String() != "GTAC" {
		t.Fatalf("Slice = %q", mid.String())
	}
	whole := seq.Slice(0, 4).Append(seq.Slice(4, 10))
	if !whole.Equal(seq) {
		t.Fatal("split+append != original")
	}
	empty := seq.Slice(3, 3)
	if empty.Len() != 0 {
		t.Fatal("empty slice has bases")
	}
}

func TestSlicePanics(t *testing.T) {
	seq := MustFromString("ACGT")
	for _, r := range [][2]int{{-1, 2}, {0, 5}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Slice(%d,%d) did not panic", r[0], r[1])
				}
			}()
			seq.Slice(r[0], r[1])
		}()
	}
}

func TestReverseComplement(t *testing.T) {
	seq := MustFromString("AACGT")
	rc := seq.ReverseComplement()
	if rc.String() != "ACGTT" {
		t.Fatalf("revcomp = %q", rc.String())
	}
	if !rc.ReverseComplement().Equal(seq) {
		t.Fatal("double revcomp not identity")
	}
}

func TestKmerAt(t *testing.T) {
	seq := MustFromString("ACGT")
	// A=0 C=1 G=2 T=3 → ACG = 0b000110 = 6
	if got := seq.KmerAt(0, 3); got != 6 {
		t.Fatalf("KmerAt(0,3) = %d, want 6", got)
	}
	if got := seq.KmerAt(1, 3); got != 0b011011 {
		t.Fatalf("KmerAt(1,3) = %d", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("overrunning k-mer did not panic")
			}
		}()
		seq.KmerAt(2, 3)
	}()
}

func TestKmerDistinctness(t *testing.T) {
	// All 4^k k-mers of a de-Bruijn-ish enumeration are distinct.
	k := 4
	seen := map[uint64]bool{}
	for v := 0; v < 256; v++ {
		bs := make([]Base, k)
		for j := 0; j < k; j++ {
			bs[j] = Base(v >> (2 * j) & 3)
		}
		km := FromBases(bs).KmerAt(0, k)
		if seen[km] {
			t.Fatalf("k-mer collision at %d", v)
		}
		seen[km] = true
	}
}

// gcContent returns the fraction of G and C bases (0 for empty).
func gcContent(s *Sequence) float64 {
	if s.Len() == 0 {
		return 0
	}
	c := s.BaseCounts()
	return float64(c[G]+c[C]) / float64(s.Len())
}

func TestBaseCountsGC(t *testing.T) {
	seq := MustFromString("GGCCAT")
	c := seq.BaseCounts()
	if c[G] != 2 || c[C] != 2 || c[A] != 1 || c[T] != 1 {
		t.Fatalf("counts = %v", c)
	}
	if gc := gcContent(seq); gc != 4.0/6.0 {
		t.Fatalf("GC = %v", gc)
	}
	if gcContent(NewSequence(0)) != 0 {
		t.Fatal("empty GC not 0")
	}
}

func TestHammingDistanceSeq(t *testing.T) {
	a := MustFromString("ACGT")
	b := MustFromString("ACCA")
	if d := a.HammingDistance(b); d != 2 {
		t.Fatalf("hamming = %d", d)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("length mismatch did not panic")
			}
		}()
		a.HammingDistance(MustFromString("ACG"))
	}()
}

func TestIndexOracle(t *testing.T) {
	hay := MustFromString("ACGTACGTTACG")
	pat := MustFromString("TACG")
	if i := hay.Index(pat, 0); i != 3 {
		t.Fatalf("Index = %d, want 3", i)
	}
	if i := hay.Index(pat, 4); i != 8 {
		t.Fatalf("Index from 4 = %d, want 8", i)
	}
	if i := hay.Index(MustFromString("GGGG"), 0); i != -1 {
		t.Fatalf("absent pattern Index = %d", i)
	}
	if i := hay.Index(NewSequence(0), 5); i != 5 {
		t.Fatalf("empty pattern Index = %d", i)
	}
}

func TestCloneEqualIndependence(t *testing.T) {
	a := MustFromString("ACGTACGT")
	b := a.Clone()
	b.Set(0, T)
	if a.At(0) != A {
		t.Fatal("clone mutation leaked")
	}
	if a.Equal(b) {
		t.Fatal("Equal true after divergence")
	}
}

// Property: String/FromString round-trips arbitrary sequences.
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)
		src := rng.New(seed)
		seq := Random(n, src)
		back, err := FromString(seq.String())
		return err == nil && back.Equal(seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Slice(0,k) + Slice(k,n) == original.
func TestQuickSplitAppend(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw) + 1
		k := int(kRaw) % n
		seq := Random(n, rng.New(seed))
		return seq.Slice(0, k).Append(seq.Slice(k, n)).Equal(seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFASTARoundTrip(t *testing.T) {
	recs := []Record{
		{ID: "seq1", Description: "first test record", Seq: MustFromString("ACGTACGTACGTACGT")},
		{ID: "seq2", Seq: MustFromString("TTTT")},
		{ID: "seq3", Description: "empty", Seq: NewSequence(0)},
	}
	var sb strings.Builder
	if err := WriteFASTA(&sb, recs, 8); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTA(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("got %d records", len(back))
	}
	for i := range recs {
		if back[i].ID != recs[i].ID || back[i].Description != recs[i].Description {
			t.Fatalf("record %d header mismatch: %+v", i, back[i])
		}
		if !back[i].Seq.Equal(recs[i].Seq) {
			t.Fatalf("record %d sequence mismatch", i)
		}
	}
}

func TestReadFASTAWrappedAndBlank(t *testing.T) {
	in := ">id desc here\nACGT\n\nacgt\n>id2\nTT\n"
	recs, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Seq.String() != "ACGTACGT" {
		t.Fatalf("wrapped sequence = %q", recs[0].Seq.String())
	}
	if recs[0].Description != "desc here" {
		t.Fatalf("description = %q", recs[0].Description)
	}
}

func TestReadFASTAErrors(t *testing.T) {
	for name, in := range map[string]string{
		"data before header": "ACGT\n",
		"empty header":       ">\nACGT\n",
		"bad base":           ">x\nACGN\n",
	} {
		if _, err := ReadFASTA(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: no error", name)
		}
	}
}

func TestReadFASTAWithMaskSubstitute(t *testing.T) {
	in := ">x with Ns\nACGTNNNNACGT\n>y clean\nACGT\n"
	recs, err := ReadFASTAWith(strings.NewReader(in), MaskSubstitute)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0].Masked != 4 || recs[1].Masked != 0 {
		t.Fatalf("masked counts %d/%d", recs[0].Masked, recs[1].Masked)
	}
	if recs[0].Seq.Len() != 12 {
		t.Fatalf("masked sequence length %d", recs[0].Seq.Len())
	}
	// Flanks preserved exactly.
	if recs[0].Seq.Slice(0, 4).String() != "ACGT" || recs[0].Seq.Slice(8, 12).String() != "ACGT" {
		t.Fatalf("flanks corrupted: %s", recs[0].Seq)
	}
	// Deterministic across parses.
	recs2, err := ReadFASTAWith(strings.NewReader(in), MaskSubstitute)
	if err != nil {
		t.Fatal(err)
	}
	if !recs[0].Seq.Equal(recs2[0].Seq) {
		t.Fatal("masking not deterministic")
	}
}

func TestReadFASTAWithMaskSkip(t *testing.T) {
	in := ">x\nACGN\n>y\nACGT\n"
	recs, err := ReadFASTAWith(strings.NewReader(in), MaskSkip)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "y" {
		t.Fatalf("skip policy kept %v", recs)
	}
}

func TestReadFASTAWithMaskReject(t *testing.T) {
	if _, err := ReadFASTAWith(strings.NewReader(">x\nACGN\n"), MaskReject); err == nil {
		t.Fatal("reject policy accepted N")
	}
	recs, err := ReadFASTAWith(strings.NewReader(">x\nACGT\n"), MaskReject)
	if err != nil || len(recs) != 1 {
		t.Fatalf("reject policy on clean input: %v %v", recs, err)
	}
}

func TestReadFASTAWithRejectsJunkEverywhere(t *testing.T) {
	// Non-IUPAC junk fails under every policy.
	for _, p := range []MaskPolicy{MaskReject, MaskSubstitute, MaskSkip} {
		if _, err := ReadFASTAWith(strings.NewReader(">x\nAC9T\n"), p); err == nil {
			t.Fatalf("policy %d accepted junk byte", p)
		}
	}
	if _, err := ReadFASTAWith(strings.NewReader(""), MaskPolicy(9)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// HammingDistance returns the number of mismatching positions between two
// equal-length sequences. It panics on a length mismatch.
func (s *Sequence) HammingDistance(o *Sequence) int {
	if s.n != o.n {
		panic(fmt.Sprintf("genome: length mismatch %d vs %d", s.n, o.n))
	}
	d := 0
	for i := 0; i < s.n; i++ {
		if s.At(i) != o.At(i) {
			d++
		}
	}
	return d
}

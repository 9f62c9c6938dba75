package genome

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMutationModelValidate(t *testing.T) {
	if err := (MutationModel{SubRate: 0.1, InsRate: 0.1, DelRate: 0.1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (MutationModel{SubRate: -0.1}).Validate(); err == nil {
		t.Fatal("negative rate accepted")
	}
	if err := (MutationModel{SubRate: 0.6, InsRate: 0.5}).Validate(); err == nil {
		t.Fatal("rates summing past 1 accepted")
	}
}

func TestMutateZeroRatesIsIdentity(t *testing.T) {
	seq := Random(500, rng.New(1))
	out, edits, err := Mutate(seq, MutationModel{}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(edits) != 0 || !out.Equal(seq) {
		t.Fatalf("zero-rate mutation changed sequence (%d edits)", len(edits))
	}
}

func TestMutateSubOnlyPreservesLength(t *testing.T) {
	seq := Random(1000, rng.New(3))
	out, edits, err := Mutate(seq, MutationModel{SubRate: 0.05}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != seq.Len() {
		t.Fatalf("sub-only mutation changed length %d -> %d", seq.Len(), out.Len())
	}
	if out.HammingDistance(seq) != len(edits) {
		t.Fatalf("hamming %d != %d recorded edits", out.HammingDistance(seq), len(edits))
	}
	for _, e := range edits {
		if e.Op != EditSub {
			t.Fatalf("unexpected op %v", e.Op)
		}
		if out.At(e.Pos) != e.To || seq.At(e.Pos) == e.To {
			t.Fatalf("edit %+v not a real substitution", e)
		}
	}
}

func TestMutateRateIsCalibrated(t *testing.T) {
	seq := Random(20000, rng.New(5))
	const rate = 0.08
	out, edits, err := Mutate(seq, MutationModel{SubRate: rate}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	got := float64(len(edits)) / float64(seq.Len())
	if math.Abs(got-rate) > 0.01 {
		t.Fatalf("empirical rate %v far from %v", got, rate)
	}
	_ = out
}

func TestMutateIndelsChangeLength(t *testing.T) {
	seq := Random(5000, rng.New(7))
	out, edits, err := Mutate(seq, MutationModel{InsRate: 0.05, DelRate: 0.02}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	ins, del := 0, 0
	for _, e := range edits {
		switch e.Op {
		case EditIns:
			ins++
		case EditDel:
			del++
		}
	}
	if out.Len() != seq.Len()+ins-del {
		t.Fatalf("length %d != %d + %d ins - %d del", out.Len(), seq.Len(), ins, del)
	}
	if ins == 0 || del == 0 {
		t.Fatal("expected both insertions and deletions at these rates")
	}
}

func TestApplyEditsReproducesMutation(t *testing.T) {
	seq := Random(2000, rng.New(9))
	out, edits, err := Mutate(seq, MutationModel{SubRate: 0.03, InsRate: 0.02, DelRate: 0.02}, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ApplyEdits(seq, edits)
	if err != nil {
		t.Fatal(err)
	}
	if !replayed.Equal(out) {
		t.Fatal("ApplyEdits does not reproduce Mutate output")
	}
}

func TestApplyEditsRejectsBadList(t *testing.T) {
	seq := MustFromString("ACGT")
	if _, err := ApplyEdits(seq, []Edit{{Op: EditSub, Pos: 99, To: A}}); err == nil {
		t.Fatal("out-of-range edit accepted")
	}
}

func TestSubstituteExactly(t *testing.T) {
	seq := Random(300, rng.New(11))
	for _, k := range []int{0, 1, 10, 300} {
		out, edits := SubstituteExactly(seq, k, rng.New(12))
		if len(edits) != k {
			t.Fatalf("k=%d: %d edits", k, len(edits))
		}
		if out.HammingDistance(seq) != k {
			t.Fatalf("k=%d: hamming %d", k, out.HammingDistance(seq))
		}
		if out.Len() != seq.Len() {
			t.Fatal("length changed")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("k > len did not panic")
			}
		}()
		SubstituteExactly(seq, 301, rng.New(13))
	}()
}

func TestEditOpString(t *testing.T) {
	if EditSub.String() != "sub" || EditIns.String() != "ins" || EditDel.String() != "del" {
		t.Fatal("EditOp names wrong")
	}
	if EditOp(9).String() == "" {
		t.Fatal("unknown op has empty name")
	}
}

// Property: ApplyEdits round-trips Mutate for arbitrary seeds and rates.
func TestQuickMutateReplay(t *testing.T) {
	f := func(seed uint64, subR, insR, delR uint8) bool {
		m := MutationModel{
			SubRate: float64(subR%30) / 100,
			InsRate: float64(insR%30) / 100,
			DelRate: float64(delR%30) / 100,
		}
		seq := Random(200, rng.New(seed))
		out, edits, err := Mutate(seq, m, rng.New(seed+1))
		if err != nil {
			return false
		}
		replayed, err := ApplyEdits(seq, edits)
		return err == nil && replayed.Equal(out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomUniform(t *testing.T) {
	seq := Random(40000, rng.New(14))
	c := seq.BaseCounts()
	for b, n := range c {
		frac := float64(n) / 40000
		if math.Abs(frac-0.25) > 0.02 {
			t.Fatalf("base %d frequency %v far from uniform", b, frac)
		}
	}
}

func TestRandomGC(t *testing.T) {
	seq := RandomGC(40000, 0.7, rng.New(15))
	if gc := gcContent(seq); math.Abs(gc-0.7) > 0.02 {
		t.Fatalf("GC content %v, want ≈0.7", gc)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("gc out of range did not panic")
			}
		}()
		RandomGC(10, 1.5, rng.New(16))
	}()
}

func TestGenerateVariantDB(t *testing.T) {
	cfg := VariantDBConfig{
		AncestorLen:   2000,
		NumVariants:   20,
		BranchFactor:  3,
		MutPerBranch:  5,
		IndelFraction: 0.2,
		Seed:          17,
	}
	db, err := GenerateVariantDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Variants) != 20 {
		t.Fatalf("%d variants", len(db.Variants))
	}
	if db.Ancestor.Len() != 2000 {
		t.Fatalf("ancestor length %d", db.Ancestor.Len())
	}
	ids := map[string]bool{}
	for _, v := range db.Variants {
		if ids[v.ID] {
			t.Fatalf("duplicate ID %s", v.ID)
		}
		ids[v.ID] = true
		if v.Distance <= 0 {
			t.Fatalf("variant %s has distance %d", v.ID, v.Distance)
		}
		if len(v.Lineage) == 0 {
			t.Fatalf("variant %s has empty lineage", v.ID)
		}
		// Variants stay close to the ancestor length (few indels).
		if d := v.Seq.Len() - 2000; d > 50 || d < -50 {
			t.Fatalf("variant %s length drifted by %d", v.ID, d)
		}
	}
	// Deeper lineage ⇒ generally greater distance: root children have
	// strictly smaller distance than any depth-3 node.
	var depth1Max, depth3Min = 0, 1 << 30
	for _, v := range db.Variants {
		if len(v.Lineage) == 1 && v.Distance > depth1Max {
			depth1Max = v.Distance
		}
		if len(v.Lineage) == 3 && v.Distance < depth3Min {
			depth3Min = v.Distance
		}
	}
	if depth3Min < 1<<30 && depth3Min <= depth1Max/3 {
		t.Fatalf("depth-3 distance %d implausibly small vs depth-1 max %d", depth3Min, depth1Max)
	}
}

func TestGenerateVariantDBDeterministic(t *testing.T) {
	cfg := DefaultVariantDBConfig()
	cfg.AncestorLen, cfg.NumVariants = 1000, 8
	a, err := GenerateVariantDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateVariantDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Variants {
		if !a.Variants[i].Seq.Equal(b.Variants[i].Seq) {
			t.Fatalf("variant %d differs across runs with same seed", i)
		}
	}
}

func TestGenerateVariantDBConfigErrors(t *testing.T) {
	for name, cfg := range map[string]VariantDBConfig{
		"zero length": {AncestorLen: 0, NumVariants: 5, BranchFactor: 2},
		"zero count":  {AncestorLen: 100, NumVariants: 0, BranchFactor: 2},
		"bad branch":  {AncestorLen: 100, NumVariants: 5, BranchFactor: 0},
		"indel range": {AncestorLen: 100, NumVariants: 5, BranchFactor: 2, IndelFraction: 2},
	} {
		if _, err := GenerateVariantDB(cfg); err == nil {
			t.Fatalf("%s: config accepted", name)
		}
	}
}

func TestSampleReads(t *testing.T) {
	src := rng.New(18)
	seqs := []*Sequence{Random(500, src), Random(800, src), Random(50, src)}
	cfg := ReadSamplerConfig{ReadLen: 100, NumReads: 200, ErrorRate: 0.02, Seed: 19}
	reads, err := SampleReads(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 200 {
		t.Fatalf("%d reads", len(reads))
	}
	for _, r := range reads {
		if r.SourceIdx == 2 {
			t.Fatal("sampled from a too-short sequence")
		}
		if r.Seq.Len() != 100 {
			t.Fatalf("read length %d", r.Seq.Len())
		}
		truth := seqs[r.SourceIdx].Slice(r.Offset, r.Offset+100)
		if truth.HammingDistance(r.Seq) != r.Errors {
			t.Fatalf("error count %d does not match hamming %d",
				r.Errors, truth.HammingDistance(r.Seq))
		}
	}
}

func TestSampleReadsErrors(t *testing.T) {
	seqs := []*Sequence{Random(50, rng.New(20))}
	if _, err := SampleReads(seqs, ReadSamplerConfig{ReadLen: 100, NumReads: 1}); err == nil {
		t.Fatal("no eligible sequence accepted")
	}
	if _, err := SampleReads(seqs, ReadSamplerConfig{ReadLen: 0, NumReads: 1}); err == nil {
		t.Fatal("zero read length accepted")
	}
	if _, err := SampleReads(seqs, ReadSamplerConfig{ReadLen: 10, NumReads: 1, ErrorRate: 2}); err == nil {
		t.Fatal("error rate > 1 accepted")
	}
}

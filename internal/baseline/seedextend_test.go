package baseline

import (
	"testing"

	"repro/internal/genome"
	"repro/internal/rng"
)

func buildIndex(t *testing.T, k int, seqs ...*genome.Sequence) *SeedIndex {
	t.Helper()
	si, err := NewSeedIndex(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs {
		if err := si.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return si
}

func TestNewSeedIndexValidation(t *testing.T) {
	for _, k := range []int{0, 1, 32, -3} {
		if _, err := NewSeedIndex(k); err == nil {
			t.Fatalf("k=%d accepted", k)
		}
	}
}

func TestSeedIndexAddShortRejected(t *testing.T) {
	si, err := NewSeedIndex(11)
	if err != nil {
		t.Fatal(err)
	}
	if err := si.Add(genome.Random(5, rng.New(1))); err == nil {
		t.Fatal("short sequence accepted")
	}
}

func TestSeedSearchExactFragment(t *testing.T) {
	src := rng.New(2)
	refs := []*genome.Sequence{
		genome.Random(2000, src), genome.Random(2000, src), genome.Random(2000, src),
	}
	si := buildIndex(t, 11, refs...)
	query := refs[1].Slice(700, 900)
	hits, ops := si.Search(query, 2, 0.9)
	if len(hits) == 0 {
		t.Fatal("exact fragment not found")
	}
	if ops <= 0 {
		t.Fatal("no ops counted")
	}
	best := hits[0]
	if best.Ref != 1 || best.RefOff != 700 {
		t.Fatalf("best hit %+v, want ref 1 @700", best)
	}
	if best.Identity() != 1 {
		t.Fatalf("identity %v for exact fragment", best.Identity())
	}
}

func TestSeedSearchMutatedFragment(t *testing.T) {
	src := rng.New(3)
	ref := genome.Random(3000, src)
	si := buildIndex(t, 11, ref)
	query, _ := genome.SubstituteExactly(ref.Slice(1000, 1200), 6, src) // 3% divergence
	hits, _ := si.Search(query, 2, 0.9)
	if len(hits) == 0 {
		t.Fatal("mutated fragment not found")
	}
	if hits[0].RefOff != 1000 {
		t.Fatalf("hit at %d, want 1000", hits[0].RefOff)
	}
	if id := hits[0].Identity(); id < 0.95 || id >= 1 {
		t.Fatalf("identity %v implausible for 6/200 substitutions", id)
	}
}

func TestSeedSearchRejectsUnrelated(t *testing.T) {
	src := rng.New(4)
	si := buildIndex(t, 11, genome.Random(3000, src))
	query := genome.Random(200, src)
	hits, _ := si.Search(query, 2, 0.9)
	if len(hits) != 0 {
		t.Fatalf("unrelated query produced hits: %+v", hits)
	}
}

func TestSeedSearchEdges(t *testing.T) {
	si, _ := NewSeedIndex(11)
	if hits, _ := si.Search(genome.Random(100, rng.New(5)), 1, 0); hits != nil {
		t.Fatal("empty index produced hits")
	}
	si = buildIndex(t, 11, genome.Random(100, rng.New(6)))
	if hits, _ := si.Search(genome.Random(5, rng.New(7)), 1, 0); hits != nil {
		t.Fatal("query shorter than k produced hits")
	}
}

func TestSeedClassify(t *testing.T) {
	src := rng.New(8)
	refs := []*genome.Sequence{genome.Random(1500, src), genome.Random(1500, src)}
	si := buildIndex(t, 11, refs...)
	query, _ := genome.SubstituteExactly(refs[0].Slice(200, 500), 5, src)
	hit, _, ok := si.Classify(query, 2, 0.9)
	if !ok || hit.Ref != 0 {
		t.Fatalf("classification failed: %+v ok=%v", hit, ok)
	}
	if _, _, ok := si.Classify(genome.Random(300, src), 2, 0.9); ok {
		t.Fatal("unrelated query classified")
	}
}

func TestSeedSearchQueryOverhangs(t *testing.T) {
	// Query extends past the reference start (negative diagonal): the
	// extension must clip correctly rather than index out of range.
	src := rng.New(9)
	ref := genome.Random(500, src)
	si := buildIndex(t, 11, ref)
	prefix := genome.Random(50, src)
	query := prefix.Append(ref.Slice(0, 150))
	hits, _ := si.Search(query, 2, 0.0)
	found := false
	for _, h := range hits {
		if h.RefOff == -50 {
			found = true
		}
	}
	if !found {
		t.Fatalf("overhanging alignment not reported: %+v", hits)
	}
}

package cobs

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

// oracleVerify is the per-base verification loop verifyWindow replaced:
// at every offset of every live candidate it compares the window base by
// base, counting the matched prefix plus the mismatching base.
func oracleVerify(x *Index, v *core.View, dst []core.Match, pattern *genome.Sequence, qoff int, cands []int32, stats *core.Stats) []core.Match {
	w := x.params.Window
	for _, ref := range cands {
		seq := v.Refs[ref].Seq
		if seq == nil {
			continue
		}
		stats.WindowsVerified++
		for off := 0; off+w <= seq.Len(); off++ {
			j := 0
			for j < w && seq.At(off+j) == pattern.At(qoff+j) {
				j++
			}
			stats.BaseComparisons += j
			if j < w {
				stats.BaseComparisons++
				continue
			}
			dst = append(dst, core.Match{Ref: int(ref), Off: off, QueryOff: qoff, Distance: 0})
		}
	}
	return dst
}

// periodicSeq returns n bases repeating unit.
func periodicSeq(unit string, n int) *genome.Sequence {
	return genome.MustFromString(strings.Repeat(unit, n/len(unit)+1)[:n])
}

// verifyCorpus returns references mixing random sequences with
// low-complexity ones (all-A, ACAC…, a tandem repeat) that give one
// query many overlapping hits, and queries of w+5 bases: windows of the
// references, random absents, and the low-complexity motifs.
func verifyCorpus(w, nQueries int) (refs, queries []*genome.Sequence) {
	src := rng.New(uint64(9000 + w))
	for i := 0; i < 24; i++ {
		refs = append(refs, genome.Random(300+src.Intn(600), src))
	}
	unit := genome.Random(w+17, src)
	tandem := unit
	for i := 0; i < 5; i++ {
		tandem = tandem.Append(unit)
	}
	refs = append(refs, genome.NewSequence(500), periodicSeq("AC", 500), tandem)
	motifs := []*genome.Sequence{genome.NewSequence(w + 5), periodicSeq("AC", w+5), periodicSeq("CA", w+5), tandem.Slice(3, w+8)}
	for i := 0; len(queries) < nQueries; i++ {
		switch i % 4 {
		case 0, 1:
			ref := refs[src.Intn(len(refs))]
			off := src.Intn(ref.Len() - w - 5 + 1)
			queries = append(queries, ref.Slice(off, off+w+5))
		case 2:
			queries = append(queries, genome.Random(w+5, src))
		default:
			queries = append(queries, motifs[i/4%len(motifs)])
		}
	}
	return refs, queries
}

// TestVerifyMatchesPerBaseLoop pins the cobs answers and work counters
// to the per-base loop verification used to be, at window lengths on
// both sides of the 32-base key word. A small signature makes Bloom
// false positives common, so most verified offsets mismatch; one
// reference is removed after sealing, so a tombstoned candidate is
// skipped as before.
func TestVerifyMatchesPerBaseLoop(t *testing.T) {
	for _, w := range []int{20, 32, 48} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			refs, queries := verifyCorpus(w, 520)
			x := mustIndex(t, Params{Window: w, RowBits: 2048, Hashes: 2})
			x.SetSealThreshold(8)
			for i, seq := range refs {
				if err := x.Add(genome.Record{ID: fmt.Sprintf("r%d", i), Seq: seq}); err != nil {
					t.Fatal(err)
				}
			}
			x.Freeze()
			if err := x.Remove(3); err != nil {
				t.Fatal(err)
			}
			var falsePos, repeated int
			for qi, q := range queries {
				got, gotStats, err := x.Lookup(q)
				if err != nil {
					t.Fatal(err)
				}
				v, err := x.Pin("oracle")
				if err != nil {
					t.Fatal(err)
				}
				sc := x.getScratch(v)
				var wantStats core.Stats
				x.probeWindow(v, q, 0, sc, &wantStats)
				want := oracleVerify(x, v, nil, q, 0, sc.cands.refs, &wantStats)
				if !sameMatches(got, want) || gotStats != wantStats {
					t.Fatalf("query %d: Lookup = %v %+v; per-base loop = %v %+v", qi, got, gotStats, want, wantStats)
				}
				// A window past the query's start, straight through verifyWindow.
				var st core.Stats
				x.probeWindow(v, q, 5, sc, &st)
				ost := st
				at5 := x.verifyWindow(v, nil, q, 5, sc.cands, &st)
				if want5 := oracleVerify(x, v, nil, q, 5, sc.cands.refs, &ost); !sameMatches(at5, want5) || st != ost {
					t.Fatalf("query %d at offset 5: %v %+v; per-base loop = %v %+v", qi, at5, st, want5, ost)
				}
				x.putScratch(sc)
				x.Unpin()
				if wantStats.WindowsVerified > 0 && len(want) == 0 {
					falsePos++
				}
				if len(want) > 1 && want[0].Ref == want[1].Ref {
					repeated++
				}
			}
			if falsePos == 0 || repeated == 0 {
				t.Fatalf("corpus too easy: %d queries verified only false positives, %d had repeated hits in one reference", falsePos, repeated)
			}
		})
	}
}

// BenchmarkLookup times one Lookup at the shape of the benchmark's cobs
// workload: 1 024 references of 2 048 bases, default signature geometry,
// 32-base queries of which half are present.
func BenchmarkLookup(b *testing.B) {
	src := rng.New(77)
	x, err := New(Params{})
	if err != nil {
		b.Fatal(err)
	}
	refs := make([]*genome.Sequence, 1024)
	for i := range refs {
		refs[i] = genome.Random(2048, src)
		if err := x.Add(genome.Record{ID: fmt.Sprintf("r%d", i), Seq: refs[i]}); err != nil {
			b.Fatal(err)
		}
	}
	x.Freeze()
	w := x.params.Window
	queries := make([]*genome.Sequence, 256)
	for i := range queries {
		if i%2 == 0 {
			ref := refs[src.Intn(len(refs))]
			off := src.Intn(ref.Len() - w + 1)
			queries[i] = ref.Slice(off, off+w)
		} else {
			queries[i] = genome.Random(w, src)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := x.Lookup(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

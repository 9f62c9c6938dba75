package baseline

import (
	"fmt"
	"sort"

	"repro/internal/genome"
)

// SeedHit is one seed-and-extend alignment of a query against a
// reference in the index.
type SeedHit struct {
	Ref     int // reference index
	RefOff  int // implied start of the query in the reference (diagonal)
	Seeds   int // distinct seed k-mers supporting the diagonal
	Matches int // matching bases in the ungapped extension
	Length  int // extension length compared
}

// Identity returns the fraction of matching bases in the extension.
func (h SeedHit) Identity() float64 {
	if h.Length == 0 {
		return 0
	}
	return float64(h.Matches) / float64(h.Length)
}

// SeedIndex is a BLAST-style k-mer seed index over a reference set:
// exact k-mer seeding, diagonal grouping, and ungapped extension. It is
// the classical multi-reference database-search baseline BioHD's
// reference library competes with.
type SeedIndex struct {
	k     int
	refs  []*genome.Sequence
	seeds map[uint64][]seedLoc
}

type seedLoc struct {
	ref int32
	off int32
}

// NewSeedIndex builds an index with k-mer seeds (2 ≤ k ≤ 31).
func NewSeedIndex(k int) (*SeedIndex, error) {
	if k < 2 || k > 31 {
		return nil, fmt.Errorf("baseline: seed length %d out of [2,31]", k)
	}
	return &SeedIndex{k: k, seeds: make(map[uint64][]seedLoc)}, nil
}

// Add indexes every k-mer of seq. Sequences shorter than k are rejected.
func (si *SeedIndex) Add(seq *genome.Sequence) error {
	if seq.Len() < si.k {
		return fmt.Errorf("baseline: sequence length %d shorter than seed %d", seq.Len(), si.k)
	}
	ref := int32(len(si.refs))
	si.refs = append(si.refs, seq)
	for i := 0; i+si.k <= seq.Len(); i++ {
		km := seq.KmerAt(i, si.k)
		si.seeds[km] = append(si.seeds[km], seedLoc{ref: ref, off: int32(i)})
	}
	return nil
}

// Search maps query against the index: seeds are collected, grouped by
// (reference, diagonal), diagonals with at least minSeeds support are
// extended ungapped across the full query span, and hits with identity ≥
// minIdentity are returned ordered by (Matches, Ref) descending. The
// second result is the elementary operation count (k-mer hashes, seed
// bucket scans, and extension base comparisons).
func (si *SeedIndex) Search(query *genome.Sequence, minSeeds int, minIdentity float64) ([]SeedHit, int) {
	if query.Len() < si.k || len(si.refs) == 0 {
		return nil, 0
	}
	if minSeeds < 1 {
		minSeeds = 1
	}
	ops := 0
	type diag struct {
		ref  int32
		diff int32
	}
	support := map[diag]int{}
	for i := 0; i+si.k <= query.Len(); i++ {
		km := query.KmerAt(i, si.k)
		ops++ // one hash probe per query k-mer
		for _, loc := range si.seeds[km] {
			ops++ // one bucket entry scanned
			support[diag{ref: loc.ref, diff: loc.off - int32(i)}]++
		}
	}
	var hits []SeedHit
	for d, s := range support {
		if s < minSeeds {
			continue
		}
		ref := si.refs[d.ref]
		// Ungapped extension over the overlap of query and reference on
		// this diagonal.
		qStart, rStart := 0, int(d.diff)
		if rStart < 0 {
			qStart, rStart = -rStart, 0
		}
		length := min(query.Len()-qStart, ref.Len()-rStart)
		if length <= 0 {
			continue
		}
		matches := 0
		for i := 0; i < length; i++ {
			ops++
			if query.At(qStart+i) == ref.At(rStart+i) {
				matches++
			}
		}
		hit := SeedHit{
			Ref: int(d.ref), RefOff: int(d.diff),
			Seeds: s, Matches: matches, Length: length,
		}
		if hit.Identity() >= minIdentity {
			hits = append(hits, hit)
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Matches != hits[j].Matches {
			return hits[i].Matches > hits[j].Matches
		}
		if hits[i].Ref != hits[j].Ref {
			return hits[i].Ref < hits[j].Ref
		}
		return hits[i].RefOff < hits[j].RefOff
	})
	return hits, ops
}

// Classify returns the best hit for query or false if nothing clears the
// thresholds — the seed-and-extend counterpart of core.Library.Classify.
func (si *SeedIndex) Classify(query *genome.Sequence, minSeeds int, minIdentity float64) (SeedHit, int, bool) {
	hits, ops := si.Search(query, minSeeds, minIdentity)
	if len(hits) == 0 {
		return SeedHit{}, ops, false
	}
	return hits[0], ops, true
}

package cobs

import (
	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

// probeScratch is the pooled per-lookup working set: the probe
// positions of the queried w-mer, the row-AND accumulator, and the
// candidates. Sized for the widest segment of the snapshot that
// allocated it; probe paths grow it only on a snapshot that widened.
type probeScratch struct {
	pos   [maxHashes]int
	acc   []uint64
	cands *candidates
}

// candidates is one query window's candidate set: the global indices of
// the references whose columns survive the row AND, ascending, and the
// buffer verification collects one candidate's occurrence offsets in.
type candidates struct {
	refs []int32
	offs []int
}

// getScratch returns pooled probe scratch wide enough for v's segments.
//
//biohd:coldstart pool-miss construction and growth on a widened view; steady state reuses pooled scratch
func (x *Index) getScratch(v *core.View) *probeScratch {
	sc, ok := x.pool.Get().(*probeScratch)
	if !ok {
		sc = &probeScratch{cands: &candidates{}}
	}
	if need := viewOf(v).maxWords; cap(sc.acc) < need {
		sc.acc = make([]uint64, need)
	}
	return sc
}

func (x *Index) putScratch(sc *probeScratch) { x.pool.Put(sc) }

// PositionSeed is the probe-position hash seed: a w-mer's positions are
// successive SplitMix64 draws from state WindowHash(...)^PositionSeed,
// each reduced modulo the signature length. The reference Bloom filter
// the tests hold the signature builder to derives positions the same
// way, so its filter and a column built from the same sequence set the
// same bits.
const PositionSeed uint64 = 0xb100f11e

// WindowHash folds the w bases starting at off into a 64-bit mixing
// hash (an FNV-style fold, one base at a time), supporting windows longer
// than the 31-base packed-k-mer limit. It reads the bases 32 to a packed
// word, and panics if any of the w bases lies outside seq.
func WindowHash(seq *genome.Sequence, off, w int) uint64 {
	h := uint64(0xcbf29ce484222325)
	for c := 0; c < w; c += 32 {
		k := min(w-c, 32)
		v := seq.Word(off+c, k)
		for range k {
			h ^= v & 3
			h *= 0x100000001b3
			v >>= 2
		}
	}
	return h
}

// probePositions derives the Hashes probe rows for the w-mer of
// pattern starting at qoff: successive SplitMix64 draws from
// WindowHash ^ PositionSeed, each reduced modulo RowBits.
//
//biohd:hotpath
func (p *Params) probePositions(pattern *genome.Sequence, qoff int, pos []int) []int {
	state := WindowHash(pattern, qoff, p.Window) ^ PositionSeed
	pos = pos[:p.Hashes]
	for i := range pos {
		pos[i] = int(rng.SplitMix64(&state) % uint64(p.RowBits))
	}
	return pos
}

// probeWindow runs the candidate stage for one query window across
// every segment of the snapshot: AND the probe rows, mask tombstones,
// and decode the surviving columns into global reference indices
// (ascending per segment, segments in order). Results land in
// sc.cands.refs (reset here); stats account the scan work, and the
// caller adds it to the engine's counters (probeBlock, once a block).
//
//biohd:hotpath
func (x *Index) probeWindow(v *core.View, pattern *genome.Sequence, qoff int, sc *probeScratch, stats *core.Stats) {
	sn := viewOf(v)
	pos := x.params.probePositions(pattern, qoff, sc.pos[:])
	cands := sc.cands
	cands.refs = cands.refs[:0]
	stats.Alignments++
	for _, seg := range sn.segs {
		if seg.NumBuckets() == 0 {
			continue
		}
		acc := seg.probeAnd(pos, sc.acc)
		cands.refs = seg.appendCandidates(cands.refs, acc)
		stats.BucketProbes += len(pos)
	}
	stats.CandidateBuckets += len(cands.refs)
}

// verifyWindow finds the exact occurrences of the query window
// [qoff, qoff+w) in each candidate reference, one lane-parallel pass
// over the packed reference apiece (genome.FindAll), and appends a
// Match per occurrence: Off is the occurrence offset in the reference,
// QueryOff the window's offset in the query, Distance 0 (candidates that
// fail verification — Bloom false positives — are dropped, so search is
// exact). Candidates arrive in ascending reference order and occurrences
// in ascending offset order, so the output extends dst already sorted by
// (Ref, Off). BaseComparisons counts what a naive left-to-right compare
// at every offset would make.
//
//biohd:hotpath
func (x *Index) verifyWindow(v *core.View, dst []core.Match, pattern *genome.Sequence, qoff int, cands *candidates, stats *core.Stats) []core.Match {
	w := x.params.Window
	for _, ref := range cands.refs {
		seq := v.Refs[ref].Seq
		if seq == nil {
			continue // tombstoned after the probed snapshot's seal
		}
		stats.WindowsVerified++
		var cmps int
		cands.offs, cmps = genome.FindAll(cands.offs[:0], seq, pattern, qoff, w)
		stats.BaseComparisons += cmps
		for _, off := range cands.offs {
			dst = append(dst, core.Match{Ref: int(ref), Off: off, QueryOff: qoff, Distance: 0})
		}
	}
	return dst
}

// probeBlock is Kernel.Probe. The candidate stage is a handful of row
// ANDs per window whatever the block size, so windows are served one
// after another from one scratch. Each window probes Hashes rows of
// every segment; the block's scans reach the shared counters in one
// CountScans.
//
//biohd:hotpath
func (x *Index) probeBlock(v *core.View, wins []core.Window, out []*core.BatchResult) {
	sc := x.getScratch(v)
	defer x.putScratch(sc)
	for j, wn := range wins {
		r := out[j]
		x.probeWindow(v, wn.Seq, wn.Off, sc, &r.Stats)
		r.Matches = x.verifyWindow(v, r.Matches, wn.Seq, wn.Off, sc.cands, &r.Stats)
	}
	sn, n := viewOf(v), int64(len(wins))
	x.CountScans(n*int64(x.params.Hashes*len(sn.segs)), n*int64(sn.mapped), n*int64(len(sn.segs)-sn.mapped))
}

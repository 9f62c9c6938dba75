package core

import (
	"fmt"

	"repro/internal/genome"
	"repro/internal/mmapfile"
)

// Remove deletes a reference from a frozen library by tombstoning it:
// the reference slot keeps its index but loses its sequence, every
// snapshot published from here on skips the reference's windows at
// verify time, and each affected segment's tombstone count is tracked
// so Compact knows what is worth rewriting. The bucket hypervectors are
// left untouched — the removed windows keep contributing superposition
// noise until compaction — which is exactly what makes Remove work on
// Sealed libraries (whose counters were dropped at Freeze) and lets it
// run concurrently with lookups: nothing a reader holds is ever
// written, the change lands as a fresh snapshot.
//
// If SetAutoCompact is armed and the removal pushes a segment past the
// trigger ratio, the affected segments are compacted before Remove
// returns.
func (l *Library) Remove(refIdx int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return ErrClosed
	}
	if l.snap.Load() == nil {
		return fmt.Errorf("core: Remove before Freeze")
	}
	if refIdx < 0 || refIdx >= len(l.refs) {
		return fmt.Errorf("core: reference %d out of range [0,%d)", refIdx, len(l.refs))
	}
	rec := l.refs[refIdx]
	if rec.Seq == nil {
		return fmt.Errorf("core: reference %d already removed", refIdx)
	}
	// Copy-on-write: published snapshots hold the old table, so the
	// master table is replaced, never written in place.
	refs := append([]genome.Record(nil), l.refs...)
	rec.Seq = nil
	rec.Description += " (removed)" // tombstone keeps the identifier
	refs[refIdx] = rec
	l.refs = refs
	// Sealed segments are immutable; bump their tombstone counts via
	// fresh headers that share the storage.
	for i, seg := range l.segs {
		if n := seg.countRefWindows(refIdx); n > 0 {
			l.segs[i] = seg.withTombs(seg.tombs + n)
		}
	}
	if l.autoCompact > 0 {
		if l.compactLocked(l.autoCompact) > 0 {
			return nil // compaction already published the new snapshot
		}
	}
	l.publishLocked(true)
	return nil
}

// Compact rewrites every segment whose tombstone ratio is at least
// minRatio (minRatio ≤ 0 rewrites any segment holding tombstones): the
// segment's live windows are re-encoded and re-bucketed at full
// capacity, removed windows vanish, and segments left empty are
// dropped. The rewrite happens off-line under the mutation lock and
// lands as one snapshot swap, so concurrent lookups keep scanning the
// old segments until the new ones are live. It returns the number of
// segments rewritten (including the active one, if it qualified).
func (l *Library) Compact(minRatio float64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return 0, ErrClosed
	}
	if l.snap.Load() == nil {
		return 0, fmt.Errorf("core: Compact before Freeze")
	}
	return l.compactLocked(minRatio), nil
}

func (l *Library) compactLocked(minRatio float64) int {
	rewritten := 0
	segs := l.segs[:0:0]
	var retired []*segment // mapped segments replaced by this pass
	for _, seg := range l.segs {
		if seg.tombs == 0 || seg.tombRatio() < minRatio {
			segs = append(segs, seg)
			continue
		}
		rewritten++
		if ns := l.rebuildSegment(seg); ns != nil {
			segs = append(segs, ns)
		}
		if seg.mapped {
			retired = append(retired, seg)
		}
	}
	// The active builder compacts too: rebuild it in place (still
	// mutable) when its tombstone load qualifies.
	if total := l.active.numWindows(); total > 0 {
		tombs := l.active.countTombs(l.refs)
		if tombs > 0 && float64(tombs)/float64(total) >= minRatio {
			rewritten++
			l.active = l.rebuildBuilder(l.active)
		}
	}
	if rewritten == 0 {
		return 0
	}
	l.segs = segs
	l.ctr.compactions.Add(int64(rewritten))
	l.publishLocked(true)
	// The rewritten replacements live on the heap; tell the kernel the
	// retired segments' file pages are cold. Advisory only, so readers
	// still holding a pre-compaction snapshot just refault the pages
	// from the file if they touch them.
	if l.mapping != nil {
		for _, seg := range retired {
			//lint:ignore errcheck paging hints are best-effort
			l.mapping.Advise(seg.mapOff, seg.mapLen, mmapfile.AdviseDontNeed)
		}
	}
	return rewritten
}

// rebuildSegment re-encodes a segment's live windows into a fresh
// segment, or nil if nothing lives.
func (l *Library) rebuildSegment(seg *segment) *segment {
	b := &builder{}
	l.reinsert(b, seg.liveWindows(nil, l.refs))
	return b.seal(&l.params, l.refs)
}

// rebuildBuilder re-encodes a builder's live windows into a fresh,
// still-mutable builder.
func (l *Library) rebuildBuilder(old *builder) *builder {
	b := &builder{}
	l.reinsert(b, old.liveWindows(nil, l.refs))
	return b
}

// reinsert re-encodes the given windows — the same encoding Add used
// when they were first memorized — and inserts them in order.
func (l *Library) reinsert(b *builder, windows []WindowRef) {
	sc := l.getScratch()
	defer l.putScratch(sc)
	for _, wr := range windows {
		seq := l.refs[wr.Ref].Seq
		if l.params.Approx {
			l.enc.EncodeWindowApproxInto(sc.hv, sc.acc, seq, int(wr.Off))
		} else {
			l.enc.EncodeWindowExactInto(sc.hv, seq, int(wr.Off))
		}
		b.insert(wr, sc.hv, &l.params)
	}
}

package core

import "repro/internal/genome"

// hdcView is the HDC kernel's annotation of a published View: the
// segments under their concrete type, the global bucket numbering, and
// the calibration in force. It is immutable once the view is live.
//
// Global bucket indices — the ones Candidate.Bucket and the public
// Bucket* accessors use — run across segments in order: segment k's
// local bucket i is global bucket offs[k]+i.
type hdcView struct {
	segs []*segment
	offs []int           // offs[k] = global index of segs[k]'s first bucket
	refs []genome.Record // the view's reference table
	cal  Calibration
	plan scanPlan

	nBkts       int
	rowWords    int   // the widest segment's row, 0 without segments
	sketchBytes int64 // the segments' sketch planes, where they are copies
}

// scanPlan is the per-view half of the probe plan — what depends on the
// view's bucket count, occupancy and calibration rather than on the
// library's geometry. It is derived once when the view is annotated, so
// a probe reads a few words instead of walking every bucket header.
type scanPlan struct {
	tau    float64 // decision threshold in force
	maxHam int     // τ as a full-row Hamming bound
	// sketch says stage 1 streams the segments' sketch planes under
	// sketchBound (h₁ of Model.sketchStage at this view's maxHam) and
	// survive is the share of rows the model expects it to pass on.
	// Where the plane is the whole row, or this view's threshold leaves
	// the prefix costing more than it saves, sketch is false and
	// sketchBound is maxHam: stage 1 rejects only rows the full-row
	// bound would, and stage 2 reads whatever the plane does not hold.
	sketch      bool
	sketchBound int
	survive     float64
	// oneStage says stage 1's survivors are the candidates: the rows are
	// their sketches (one window a row, DESIGN §7.5), so there is no
	// full-row stage, and verify is the second one.
	oneStage bool
}

func newHDCView(v *View, cal Calibration) *hdcView {
	sn := &hdcView{
		segs: make([]*segment, len(v.Segs)),
		offs: make([]int, len(v.Segs)),
		refs: v.Refs,
		cal:  cal,
	}
	for k, seg := range v.Segs {
		sn.segs[k] = seg.(*segment)
		sn.offs[k] = sn.nBkts
		sn.nBkts += seg.NumBuckets()
		sn.rowWords = max(sn.rowWords, sn.segs[k].rowWords)
		sn.sketchBytes += sn.segs[k].sketchBytes()
	}
	return sn
}

// hdcOf returns the kernel's annotation of a view this library
// published.
func hdcOf(v *View) *hdcView { return v.Aux.(*hdcView) }

func (sn *hdcView) numBuckets() int { return sn.nBkts }

// locate resolves a global bucket index to its segment and local index.
func (sn *hdcView) locate(g int) (*segment, int) {
	// Linear walk: views hold a handful of segments, so this beats a
	// binary search for every realistic segment count.
	for k, seg := range sn.segs {
		if g < sn.offs[k]+seg.NumBuckets() {
			return seg, g - sn.offs[k]
		}
	}
	panic("core: bucket index out of range")
}

// locateOK is locate for untrusted indices — the public Bucket*
// accessors route through it so a stale global index (e.g. a
// Candidate.Bucket held across a Compact that shrank the library)
// reports !ok instead of panicking. Internal probe paths keep using
// locate: their indices come from the view being scanned, so an
// out-of-range one is a bug worth crashing on.
func (sn *hdcView) locateOK(g int) (*segment, int, bool) {
	if g < 0 || g >= sn.nBkts {
		return nil, 0, false
	}
	seg, i := sn.locate(g)
	return seg, i, true
}

// windows returns the member windows of global bucket g (shared slice;
// callers must not mutate). Tombstoned windows are included — verify
// filters them against the view's reference table.
func (sn *hdcView) windows(g int) []WindowRef {
	seg, i := sn.locate(g)
	return seg.windows(i)
}

// maxOccupancy returns the largest bucket occupancy across segments.
func (sn *hdcView) maxOccupancy() int {
	c := 0
	for _, seg := range sn.segs {
		if n := seg.maxOccupancy(); n > c {
			c = n
		}
	}
	return c
}

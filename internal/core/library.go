package core

import (
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/encoding"
	"repro/internal/genome"
	"repro/internal/hdc"
)

// Params configures a BioHD reference library.
type Params struct {
	// Dim is the hypervector dimension (positive multiple of 64).
	Dim int
	// Window is the pattern/window length in bases.
	Window int
	// Stride is the spacing of reference window starts; 1 indexes every
	// offset (full sensitivity), larger strides trade recall for library
	// size. See Library.Lookup for how queries compensate.
	Stride int
	// Capacity is the number of windows bundled per library hypervector;
	// 0 derives the largest statistically admissible capacity from the
	// quality model (MaxCapacity at MutTolerance).
	Capacity int
	// Approx selects the positional-bundle encoding (approximate search);
	// false selects the binding-chain encoding (exact search only).
	Approx bool
	// Sealed is always true: every bucket is stored as its binary
	// majority, the layout the PIM crossbar searches.
	//
	// Deprecated: ignored; NewLibrary sets it.
	Sealed bool
	// MutTolerance is the number of per-window substitutions approximate
	// search must withstand; used for auto capacity and thresholds.
	MutTolerance int
	// Alpha is the family-wise false-positive target per Lookup
	// (default 1e-3 if zero).
	Alpha float64
	// Beta is the per-match false-negative target (default 1e-3 if zero).
	Beta float64
	// Seed determines the item memory and all derived randomness.
	Seed uint64
}

func (p *Params) applyDefaults() {
	p.Sealed = true
	if p.Stride == 0 {
		p.Stride = 1
	}
	if p.Alpha == 0 {
		p.Alpha = 1e-3
	}
	if p.Beta == 0 {
		p.Beta = 1e-3
	}
}

// Validate checks the parameters (after defaulting).
func (p Params) Validate() error {
	if p.Dim <= 0 || p.Dim%64 != 0 {
		return fmt.Errorf("core: Dim %d must be a positive multiple of 64", p.Dim)
	}
	if p.Window <= 0 || p.Window >= p.Dim {
		return fmt.Errorf("core: Window %d must be in (0, Dim)", p.Window)
	}
	if p.Stride <= 0 {
		return fmt.Errorf("core: Stride %d must be positive", p.Stride)
	}
	if p.Capacity < 0 {
		return fmt.Errorf("core: Capacity %d must be non-negative", p.Capacity)
	}
	if p.MutTolerance < 0 || p.MutTolerance > p.Window {
		return fmt.Errorf("core: MutTolerance %d out of [0, Window]", p.MutTolerance)
	}
	// The negated form rejects NaN as well as out-of-range values.
	if !(p.Alpha > 0 && p.Alpha < 1) || !(p.Beta > 0 && p.Beta < 1) {
		return fmt.Errorf("core: error targets alpha=%v beta=%v out of (0,1)", p.Alpha, p.Beta)
	}
	if !p.Approx && p.MutTolerance > 0 {
		return fmt.Errorf("core: exact encoding cannot tolerate %d mutations; set Approx", p.MutTolerance)
	}
	return nil
}

// WindowRef identifies one reference window: sequence index and offset.
type WindowRef struct {
	Ref int32
	Off int32
}

// defaultSealThreshold is the active-segment bucket count at which a
// post-freeze Add seals the active segment into a new immutable one.
const defaultSealThreshold = 4096

// Library is a BioHD reference library: genome references encoded window
// by window and memorized into superposed hypervector buckets. It is the
// HDC kernel of the segment Engine it embeds — the engine supplies the
// lifecycle (Add, Freeze, Remove, Compact, Close), the stats surface and
// every derived probe; this type supplies the encoder, the bucket
// builder, the arena scan, calibration, and the bytes a save stores
// with the meta parser that reads them back.
type Library struct {
	*Engine

	params Params
	enc    *encoding.Encoder
	// sketchWords is the cascade's sketch width, which the model derives
	// from the parameters (Model.SketchPlan): every segment cuts its
	// sketch plane to it. An approximate library with a plane also keeps
	// what probePrefix measured of that prefix on its encoder: the probe
	// windows' prefixes and the prefix's share of a pair's differing
	// dimensions. The stage-1 bound is per view: scanPlanFor.
	sketchWords    int
	sketchPrefixes []uint64
	sketchShare    float64

	// rowWords is the width a row is stored at: D/64, or at one window
	// a row with a plane the sketch width (DESIGN §7.5), prefix then
	// folding just those words of every encoding.
	rowWords int
	prefix   *encoding.ApproxPrefix

	// ties is the packed tie-break stream every bucket is bundled under
	// (hdc.Rows).
	ties *hdc.Ties

	// groups is how many groups an exact library routes its windows to
	// (routeGroups), 0 for an approximate one, which is not routed.
	groups int

	// cal is the calibration last derived; it is only touched with the
	// engine's mutation lock held.
	cal Calibration

	// blockPool pools the kernel's probe scratch — one query block's
	// worth of encodings, kernel state, and candidate buffers; see
	// blockScratch.
	blockPool sync.Pool
}

// blockScratch is the reusable state of the probe paths: one block's
// worth of query window encodings, the range kernel's query block,
// and per-query candidate buffers. Pooled per library — concurrent
// requests probe at once, so the scratch must be per-call, not shared.
type blockScratch struct {
	hvs    []*hdc.HV          // query window encodings, BlockWidth of them
	acc    *hdc.Acc           // the approximate encoder's row-index scratch; nil in exact mode
	scan   *bitvec.QueryBlock // the range kernel's block: its queries and their survivors
	sub    *bitvec.QueryBlock // the block's queries routed to one group; nil where nothing is routed
	cands  [][]Candidate      // per-query candidate buffers
	one    [1]*hdc.HV         // Probe's one-query block
	keys   [BlockWidth]uint64 // the block's routing keys
	scored [BlockWidth]int    // the buckets each query scored
}

// candidateHint pre-sizes candidate slices: probes that hit at all
// typically yield a handful of buckets, so this avoids append growth
// churn without holding meaningful memory.
const candidateHint = 16

// getBlockScratch returns the pooled probe scratch, constructing it on
// a pool miss.
//
//biohd:coldstart pool-miss construction; steady state reuses pooled scratch
func (l *Library) getBlockScratch() *blockScratch {
	if s, ok := l.blockPool.Get().(*blockScratch); ok {
		return s
	}
	s := &blockScratch{
		hvs:   make([]*hdc.HV, BlockWidth),
		scan:  bitvec.NewQueryBlock(l.params.Dim / 64),
		cands: make([][]Candidate, BlockWidth),
	}
	if l.groups > 0 {
		s.sub = bitvec.NewQueryBlock(l.params.Dim / 64)
	}
	for i := range s.hvs {
		s.hvs[i] = hdc.NewHV(l.params.Dim)
	}
	for i := range s.cands {
		s.cands[i] = make([]Candidate, 0, candidateHint)
	}
	if l.params.Approx {
		s.acc = hdc.NewAcc(l.params.Dim)
	}
	return s
}

func (l *Library) putBlockScratch(s *blockScratch) { l.blockPool.Put(s) }

// planningBuckets is the library size assumed where a size is needed
// before there is a library — the Bonferroni term of capacity planning
// and of the threshold the sketch width is sized against: generous, so
// the plans hold as a library grows. The threshold at search time uses
// the real bucket count.
const planningBuckets = 1 << 20

// NewLibrary creates an empty library with the given parameters.
// If params.Capacity is 0 it is derived from the statistical model.
func NewLibrary(params Params) (*Library, error) {
	params.applyDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if params.Capacity == 0 {
		params.Capacity = MaxCapacity(params.Dim, params.Window, params.Approx,
			params.MutTolerance, planningBuckets, params.Alpha, params.Beta)
	}
	enc, err := encoding.New(encoding.Config{
		Dim:    params.Dim,
		Window: params.Window,
		Seed:   params.Seed,
	})
	if err != nil {
		return nil, err
	}
	l := &Library{params: params, enc: enc, ties: hdc.NewTies(params.Dim, params.Seed^tieSeedMix), groups: routeGroups(params)}
	// The width is sized against the threshold the model expects at the
	// library size capacity planning assumes; views re-derive the bound
	// from the threshold they are actually searched at.
	tau := l.threshold(params.Capacity, planningBuckets)
	l.sketchWords = l.modelWith(params.Capacity).SketchPlan(hammingBound(params.Dim, tau)).Words
	l.rowWords = params.Dim / 64
	if params.Approx && l.sketchWords < l.rowWords {
		l.sketchPrefixes, l.sketchShare = l.probePrefix(l.sketchWords)
		if params.Capacity == 1 {
			l.rowWords, l.prefix = l.sketchWords, enc.ApproxPrefix(l.sketchWords)
		}
	}
	l.Engine = NewEngine(Kernel{
		Window:        params.Window,
		Stride:        params.Stride,
		SealThreshold: defaultSealThreshold,
		Tag:           backendTagHDC,
		Builder:       l.newBuilder,
		Describe:      l.describe,
		Annotate:      l.annotate,
		Probe:         l.probeBlock,
		Save:          l.save,
	})
	return l, nil
}

// Params returns the library's effective parameters (with derived
// capacity filled in).
func (l *Library) Params() Params { return l.params }

// Encoder exposes the library's encoder (e.g. for encoding queries
// outside Lookup).
func (l *Library) Encoder() *encoding.Encoder { return l.enc }

// Model returns the statistical model for this library's geometry. The
// capacity entering the model is the *effective* one — the largest
// actual bucket occupancy — so a generously configured capacity over a
// small reference set does not inflate the predicted noise.
func (l *Library) Model() Model { return l.modelWith(l.hdcNow().maxOccupancy()) }

// hdcNow returns the annotation of the current view — before Freeze, of
// the view Freeze would publish, with neither calibration nor plan.
func (l *Library) hdcNow() *hdcView {
	v, frozen := l.current()
	if frozen {
		return hdcOf(v)
	}
	return newHDCView(v, Calibration{})
}

// threshold is the model's decision threshold at bucket occupancy occ
// over the given number of buckets, at the library's error targets and
// mutation tolerance (Model.Threshold counts fewer than one bucket as one).
func (l *Library) threshold(occ, buckets int) float64 {
	return l.modelWith(occ).DecisionThreshold(l.params.Alpha, l.params.Beta, buckets, l.params.MutTolerance)
}

func (l *Library) modelWith(c int) Model {
	if c == 0 {
		// A loaded file may carry capacity 0 around buckets that hold
		// nothing; the model's geometry starts at one window.
		c = max(l.params.Capacity, 1)
	}
	return Model{
		D:      l.params.Dim,
		W:      l.params.Window,
		C:      c,
		Approx: l.params.Approx,
	}
}

// encodeInto encodes the window of seq starting at off under the
// library's encoding: the positional bundle (approximate search) or the
// binding chain (exact search only) — only the first rowWords words of
// hv, all a row stores and a probe reads.
func (l *Library) encodeInto(hv *hdc.HV, acc *hdc.Acc, seq *genome.Sequence, off int) {
	switch {
	case l.prefix != nil:
		l.prefix.EncodeInto(hv.Words()[:l.rowWords], acc, seq, off)
	case l.params.Approx:
		l.enc.EncodeWindowApproxInto(hv, acc, seq, off)
	default:
		l.enc.EncodeWindowExactInto(hv, seq, off)
	}
}

// newBuilder is Kernel.Builder.
func (l *Library) newBuilder() Builder {
	return &builder{l: l, groups: make([]group, max(l.groups, 1))}
}

// Append is Builder.Append: every stride-aligned window of rec is
// encoded as a query for it would be encoded and superposed into the
// builder, in the group its key routes it to — the one way a window
// reaches a bucket, at ingest and at compaction. An exact library at
// stride 1 folds the first window and slides to each later one
// (Encoder.SlideExact, DESIGN §8.1), the same bits at a fraction of the
// fold's cost, whatever group each lands in; other geometries encode
// every window directly.
func (b *builder) Append(ref int32, rec genome.Record) int {
	l := b.l
	if b.hv == nil {
		b.hv = hdc.NewHV(l.params.Dim)
		if l.params.Approx {
			b.acc = hdc.NewAcc(l.params.Dim)
		}
	}
	hv := b.hv
	slide := !l.params.Approx && l.params.Stride == 1
	for start := 0; start+l.params.Window <= rec.Seq.Len(); start += l.params.Stride {
		if slide && start > 0 {
			l.enc.SlideExact(hv, rec.Seq, start-1)
		} else {
			l.encodeInto(hv, b.acc, rec.Seq, start)
		}
		var key uint64
		if l.groups > 0 {
			key = windowKey(rec.Seq, start, l.params.Window)
		}
		b.insert(key, WindowRef{Ref: ref, Off: int32(start)}, hv)
	}
	return b.numBuckets()
}

// annotate is Kernel.Annotate: approximate-mode libraries recalibrate
// their operating threshold on every view they publish (see
// Calibration), and every view carries the probe plan derived from it,
// so readers never see a view whose calibration or plan lags its
// contents.
func (l *Library) annotate(v *View) any {
	sn := newHDCView(v, l.cal)
	if l.params.Approx && sn.nBkts > 0 {
		sn.cal = l.calibrate(sn)
		l.cal = sn.cal
	}
	sn.plan = l.scanPlanFor(sn)
	return sn
}

// BucketWindows returns the member windows of bucket i (shared slice; do
// not mutate). Windows of removed references are included; check
// Ref(wr.Ref).Seq != nil for liveness. An out-of-range index — e.g. a
// Candidate.Bucket held across a Compact that shrank the library —
// returns nil rather than panicking.
func (l *Library) BucketWindows(i int) []WindowRef {
	seg, li, ok := l.hdcNow().locateOK(i)
	if !ok {
		return nil
	}
	return seg.windows(li)
}

// BucketVector returns the sealed hypervector of bucket i. Where the
// segment keeps an arena the vector aliases its row (do not mutate —
// and do not retain across Close on a mapped library, the words alias
// the file mapping); where the grouped plane holds the rows it is a
// copy gathered from the plane. It panics if the library is not frozen
// — the sealed view only exists after Freeze — but an out-of-range
// index, like a stale bucket index held across a Compact, returns nil
// rather than panicking. Where rows are sketches the vector is encoded
// afresh (wholeRow), and nil for a bucket whose window's reference was
// removed.
func (l *Library) BucketVector(i int) *hdc.HV {
	v := l.snap.Load()
	if v == nil {
		panic("core: BucketVector before Freeze")
	}
	if !l.beginRead() {
		return nil
	}
	defer l.endRead()
	sn := hdcOf(v)
	if _, _, ok := sn.locateOK(i); !ok {
		return nil
	}
	return l.wholeRow(sn, i, nil, nil)
}

// wholeRow returns global bucket g's row at full width: the arena row,
// or the row gathered from a grouped plane into dst (a new vector if
// dst is nil), or where rows are sketches the row the sketch was cut
// from — the encoding of the bucket's one window, encoded again into
// dst — and nil if that window's reference was removed.
func (l *Library) wholeRow(sn *hdcView, g int, dst *hdc.HV, acc *hdc.Acc) *hdc.HV {
	seg, i := sn.locate(g)
	if seg.rowWords == l.params.Dim/64 {
		return seg.vector(i, dst)
	}
	wr := seg.windows(i)[0]
	switch ref := sn.refs[wr.Ref].Seq; {
	case ref == nil:
		return nil
	case dst == nil:
		return l.enc.EncodeWindowApprox(ref, int(wr.Off))
	default:
		l.enc.EncodeWindowApproxInto(dst, acc, ref, int(wr.Off))
		return dst
	}
}

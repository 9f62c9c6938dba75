package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/encoding"
	"repro/internal/genome"
	"repro/internal/hdc"
	"repro/internal/mmapfile"
)

// ErrClosed is returned by operations on a library whose Close has
// been called (only mmap-backed libraries reject reads after Close —
// their arenas are unmapped — but mutations fail on any closed
// library).
var ErrClosed = errors.New("core: library is closed")

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
	// Sealed stores buckets as binarized hypervectors; false keeps raw
	// counters (more precise scores, W·log₂ storage overhead). The PIM
	// architecture stores sealed buckets; raw counters model a
	// digital-PIM variant.
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
// by window and memorized into superposed hypervector buckets.
//
// The library is segmented: immutable sealed segments plus one mutable
// active segment, with every read path going through an atomically
// published snapshot. Build with NewLibrary/Add, then Freeze; after
// Freeze the library keeps accepting Add and Remove concurrently with
// searches — each mutation assembles the next snapshot off-line under
// the mutation lock and publishes it with one pointer swap, so readers
// never lock and never observe a half-applied change. The active
// segment auto-seals into a new immutable segment once it reaches
// SetSealThreshold buckets, and Compact rewrites segments whose
// tombstone fraction (from Remove) crossed a trigger.
type Library struct {
	params Params
	enc    *encoding.Encoder

	// snap is the current read view. Nil until Freeze; every search path
	// loads it exactly once per operation.
	snap atomic.Pointer[snapshot]

	// mu serializes mutations (Add, Remove, Compact, Freeze). The master
	// state below is only touched with mu held.
	mu     sync.Mutex
	refs   []genome.Record // master reference table (removed ⇒ Seq nil)
	segs   []*segment      // sealed segments, in creation order
	active *builder        // the mutable tail
	cal    Calibration

	sealThreshold int     // active-segment bucket count that triggers auto-seal
	autoCompact   float64 // tombstone ratio that triggers compaction on Remove; 0 = manual

	// scratch pools per-query lookup state (query hypervector, counter
	// accumulator, candidate slice) so steady-state Lookup does not
	// allocate; see lookupScratch.
	scratch sync.Pool

	// blockPool pools the cross-query scratch plane of the blocked probe
	// paths — one query block's worth of encodings, kernel state, and
	// candidate buffers; see blockScratch.
	blockPool sync.Pool

	// ctr accumulates lifetime operational counters (probe scans, early
	// abandons, batch cancellations, seals, compactions) for the /metrics
	// endpoint; see Counters.
	ctr libCounters

	// errShort is the invalid-pattern error, precomputed so the batch
	// path reports it without formatting on a hot path.
	errShort error

	// mapped marks a library whose sealed arenas alias a read-only file
	// mapping (OpenLibraryFile with MapArena). Immutable after
	// construction, so the hot read paths branch on it without
	// synchronization. Heap libraries skip the reader accounting below
	// entirely — their storage never disappears, so reads cost nothing
	// extra.
	mapped bool
	// mapping is the backing file mapping of a mapped library; guarded
	// by mu (Close nils it after unmapping).
	mapping *mmapfile.Mapping
	// readers counts in-flight read operations of a mapped library;
	// Close unmaps only after it drains to zero.
	readers atomic.Int64
	// closed is set by Close; mapped reads and all mutations fail once
	// it is observed.
	closed atomic.Bool
}

// beginRead opens a read section: every public operation that touches
// segment arenas brackets itself with beginRead/endRead so Close can
// drain in-flight readers before unmapping. Heap-backed libraries pay
// a single predictable branch. A false return means the library is
// closed and the arenas are (or are about to be) unmapped; the caller
// must fail with ErrClosed without touching storage.
//
//biohd:hotpath
func (l *Library) beginRead() bool {
	if !l.mapped {
		return true
	}
	l.readers.Add(1)
	// Increment before the closed check: Close sets closed first, then
	// waits for readers to drain, so either it observes our increment
	// and waits for endRead, or we observe closed and back out.
	if l.closed.Load() {
		l.readers.Add(-1)
		return false
	}
	return true
}

// endRead closes a read section opened by beginRead.
//
//biohd:hotpath
func (l *Library) endRead() {
	if l.mapped {
		l.readers.Add(-1)
	}
}

// Close shuts the library down. For a mapped library it waits for
// in-flight reads to drain, then unmaps the backing file — after which
// any retained arena alias (e.g. a BucketVector result) is invalid.
// Heap libraries just stop accepting mutations and reads keep working;
// either way Close is idempotent and further mutations return
// ErrClosed.
func (l *Library) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Swap(true) {
		return nil
	}
	if l.mapping == nil {
		return nil
	}
	// Drain: new readers observe closed and back out; existing ones
	// finish their scan and decrement. Scans are short (no blocking
	// operations inside a read section), so yielding is enough.
	for l.readers.Load() != 0 {
		runtime.Gosched()
	}
	err := l.mapping.Close()
	l.mapping = nil
	return err
}

// Mapped reports whether the library's sealed arenas alias a read-only
// file mapping (zero-copy v3 load) rather than heap storage.
func (l *Library) Mapped() bool { return l.mapped }

// MappedBytes returns the size of the backing file mapping, or 0 for
// heap-loaded (or closed) libraries. This is address space, not
// resident memory — the kernel pages the hot subset in and out.
func (l *Library) MappedBytes() int64 {
	if !l.mapped {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.mapping == nil {
		return 0
	}
	return int64(l.mapping.Len())
}

// ResidentBytes estimates the bytes of the library's search store
// currently resident in RAM. For a mapped library it asks the kernel
// (mincore over the whole mapping), which is what makes the low-mem
// tier observable: mapped minus resident is the working-set savings.
// Where mincore is unavailable it conservatively reports the full
// mapping, and for heap-loaded libraries the heap footprint — heap
// pages are not file-backed, so they are resident by construction.
func (l *Library) ResidentBytes() int64 {
	if !l.mapped {
		return l.MemoryFootprint()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.mapping == nil {
		return 0
	}
	n, err := l.mapping.Resident(0, l.mapping.Len())
	if err != nil {
		return int64(l.mapping.Len())
	}
	return n
}

// lookupScratch is the reusable per-query state of the lookup paths.
// Instances are pooled on the library; a frozen library is probed
// concurrently (LookupBatch), so scratch must be per-call, not shared.
type lookupScratch struct {
	hv    *hdc.HV  // query window encoding
	acc   *hdc.Acc // counter scratch for approximate encoding; nil in exact mode
	cands []Candidate
}

// candidateHint pre-sizes candidate slices: probes that hit at all
// typically yield a handful of buckets, so this avoids append growth
// churn without holding meaningful memory.
const candidateHint = 16

// getScratch returns pooled per-query lookup state, constructing it on
// a pool miss.
//
//biohd:coldstart pool-miss construction; steady state reuses pooled scratch
func (l *Library) getScratch() *lookupScratch {
	if s, ok := l.scratch.Get().(*lookupScratch); ok {
		return s
	}
	s := &lookupScratch{
		hv:    hdc.NewHV(l.params.Dim),
		cands: make([]Candidate, 0, candidateHint),
	}
	if l.params.Approx {
		s.acc = hdc.NewAcc(l.params.Dim)
	}
	return s
}

func (l *Library) putScratch(s *lookupScratch) { l.scratch.Put(s) }

// blockScratch is the reusable state of the query-blocked probe paths
// (ProbeMulti, LookupLong, lookupBlock): one block's worth of query
// window encodings, the multi-kernel's word views, bounds and distance
// vectors, per-query candidate buffers, and the diagonal-voting state
// of LookupLong. Pooled per library — batch workers run blocked probes
// concurrently, so the plane must be per-call, not shared.
type blockScratch struct {
	hvs    []*hdc.HV     // query window encodings, probeBlock of them
	acc    *hdc.Acc      // counter scratch for approximate encoding; nil in exact mode
	qs     [][]uint64    // word views of the active encodings, for the multi kernel
	bounds []int         // per-query Hamming bounds
	dist   []int         // per-query distances (kernel output)
	cands  [][]Candidate // per-query candidate buffers

	// LookupLong's diagonal voting state, reused across calls so a long
	// read does not rebuild its maps window by window.
	matches []Match          // per-window match buffer
	seen    map[diagKey]bool // per-window diagonal dedup
	votes   map[diagKey]int  // per-call diagonal votes
	best    map[int]diagKey  // per-call winning diagonal per reference
}

// getBlockScratch returns the pooled cross-query scratch plane,
// constructing it on a pool miss.
//
//biohd:coldstart pool-miss construction; steady state reuses pooled scratch
func (l *Library) getBlockScratch() *blockScratch {
	if s, ok := l.blockPool.Get().(*blockScratch); ok {
		return s
	}
	s := &blockScratch{
		hvs:    make([]*hdc.HV, probeBlock),
		qs:     make([][]uint64, 0, probeBlock),
		bounds: make([]int, probeBlock),
		dist:   make([]int, probeBlock),
		cands:  make([][]Candidate, probeBlock),
		seen:   make(map[diagKey]bool),
		votes:  make(map[diagKey]int),
		best:   make(map[int]diagKey),
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

// NewLibrary creates an empty library with the given parameters.
// If params.Capacity is 0 it is derived from the statistical model.
func NewLibrary(params Params) (*Library, error) {
	params.applyDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if params.Capacity == 0 {
		// Capacity planning assumes a generously sized library (1<<20
		// buckets) for the Bonferroni term; the threshold at search time
		// uses the real bucket count.
		params.Capacity = MaxCapacity(params.Dim, params.Window, params.Approx,
			params.Sealed, params.MutTolerance, 1<<20, params.Alpha, params.Beta)
	}
	enc, err := encoding.New(encoding.Config{
		Dim:    params.Dim,
		Window: params.Window,
		Seed:   params.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Library{
		params:        params,
		enc:           enc,
		active:        &builder{},
		sealThreshold: defaultSealThreshold,
		errShort:      fmt.Errorf("core: pattern shorter than window %d", params.Window),
	}, nil
}

// Params returns the library's effective parameters (with derived
// capacity filled in).
func (l *Library) Params() Params { return l.params }

// Encoder exposes the library's encoder (e.g. for encoding queries
// outside Lookup).
func (l *Library) Encoder() *encoding.Encoder { return l.enc }

// SetSealThreshold sets the active-segment bucket count at which a
// post-freeze Add seals the active segment into a new immutable one
// (default 4096; n ≤ 0 restores the default).
func (l *Library) SetSealThreshold(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 {
		n = defaultSealThreshold
	}
	l.sealThreshold = n
}

// SetAutoCompact sets the tombstone ratio at which Remove triggers an
// automatic Compact of the affected segments; ratio ≤ 0 (the default)
// keeps compaction manual.
func (l *Library) SetAutoCompact(ratio float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.autoCompact = ratio
}

// NumBuckets returns the number of library hypervectors.
func (l *Library) NumBuckets() int {
	if sn := l.snap.Load(); sn != nil {
		return sn.numBuckets()
	}
	return l.active.numBuckets()
}

// NumWindows returns the number of live (non-removed) reference windows
// memorized.
func (l *Library) NumWindows() int {
	if sn := l.snap.Load(); sn != nil {
		return sn.nWin
	}
	return l.active.numWindows()
}

// NumRefs returns the number of reference sequences added, including
// removed ones (tombstoned slots keep their indices).
func (l *Library) NumRefs() int {
	if sn := l.snap.Load(); sn != nil {
		return len(sn.refs)
	}
	return len(l.refs)
}

// Ref returns the i-th reference record. A removed reference has a nil
// Seq and a " (removed)" description suffix.
func (l *Library) Ref(i int) genome.Record {
	if sn := l.snap.Load(); sn != nil {
		return sn.refs[i]
	}
	return l.refs[i]
}

// NumSegments returns the number of segments in the current snapshot
// (sealed segments plus the active view); 0 before Freeze.
func (l *Library) NumSegments() int {
	if sn := l.snap.Load(); sn != nil {
		return sn.numSegments()
	}
	return 0
}

// TombstoneRatio returns the fraction of memorized windows whose
// reference has been removed but not yet compacted away.
func (l *Library) TombstoneRatio() float64 {
	if sn := l.snap.Load(); sn != nil {
		return sn.tombRatio()
	}
	return 0
}

// SegmentInfo describes one segment of the current snapshot.
type SegmentInfo struct {
	Buckets    int // buckets in the segment
	Windows    int // member windows, including tombstoned ones
	Tombstones int // member windows whose reference was removed
}

// Segments describes the current snapshot's segments in scan order.
func (l *Library) Segments() []SegmentInfo {
	sn := l.snap.Load()
	if sn == nil {
		return nil
	}
	out := make([]SegmentInfo, len(sn.segs))
	for k, seg := range sn.segs {
		out[k] = SegmentInfo{Buckets: seg.numBuckets(), Windows: seg.total, Tombstones: seg.tombs}
	}
	return out
}

// Model returns the statistical model for this library's geometry. The
// capacity entering the model is the *effective* one — the largest
// actual bucket occupancy — so a generously configured capacity over a
// small reference set does not inflate the predicted noise.
func (l *Library) Model() Model {
	c := 0
	if sn := l.snap.Load(); sn != nil {
		c = sn.maxOccupancy()
	} else {
		c = l.active.maxOccupancy()
	}
	return l.modelWith(c)
}

func (l *Library) modelWith(c int) Model {
	if c == 0 {
		c = l.params.Capacity
	}
	return Model{
		D:      l.params.Dim,
		W:      l.params.Window,
		C:      c,
		Approx: l.params.Approx,
		Sealed: l.params.Sealed,
	}
}

// Add encodes every stride-aligned window of rec and memorizes it.
// References shorter than one window are rejected. Before Freeze, Add
// builds the initial segment; after Freeze, Add appends to the active
// segment and publishes a new snapshot, so the reference becomes
// searchable immediately and concurrently running lookups are never
// disturbed. The active segment auto-seals at the SetSealThreshold
// bucket count.
func (l *Library) Add(rec genome.Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.addLocked(rec)
}

func (l *Library) addLocked(rec genome.Record) error {
	if l.closed.Load() {
		return ErrClosed
	}
	if rec.Seq == nil || rec.Seq.Len() < l.params.Window {
		return fmt.Errorf("core: reference %q shorter than window %d", rec.ID, l.params.Window)
	}
	refIdx := int32(len(l.refs))
	l.refs = append(l.refs, rec)
	if l.params.Approx {
		sc := l.getScratch()
		defer l.putScratch(sc)
		for start := 0; start+l.params.Window <= rec.Seq.Len(); start += l.params.Stride {
			l.enc.EncodeWindowApproxInto(sc.hv, sc.acc, rec.Seq, start)
			l.active.insert(WindowRef{Ref: refIdx, Off: int32(start)}, sc.hv, &l.params)
		}
	} else {
		l.enc.SlideExact(rec.Seq, l.params.Stride, func(start int, hv *hdc.HV) bool {
			l.active.insert(WindowRef{Ref: refIdx, Off: int32(start)}, hv, &l.params)
			return true
		})
	}
	if l.snap.Load() == nil {
		return nil // still building; Freeze publishes the first snapshot
	}
	l.maybeSealActiveLocked()
	l.publishLocked(true)
	return nil
}

// maybeSealActiveLocked seals the active segment into a new immutable
// one when it has reached the auto-seal threshold. Sealing happens at
// Add granularity — a reference's windows never straddle a seal that
// its own Add triggered mid-insert.
func (l *Library) maybeSealActiveLocked() {
	if l.active.numBuckets() < l.sealThreshold {
		return
	}
	if seg := l.active.seal(&l.params, l.refs); seg != nil {
		l.segs = append(l.segs, seg)
		l.ctr.segmentSeals.Add(1)
	}
}

// Freeze publishes the first snapshot: the buckets built so far seal
// into the library's first immutable segment, approximate-mode libraries
// calibrate their operating threshold (see Calibration), and the library
// becomes safe for concurrent search — and, unlike the pre-segmented
// design, keeps accepting Add/Remove/Compact afterwards. Freezing an
// empty library is a no-op that leaves it unfrozen.
func (l *Library) Freeze() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() || l.snap.Load() != nil || l.active.numBuckets() == 0 {
		return
	}
	if seg := l.active.seal(&l.params, l.refs); seg != nil {
		l.segs = append(l.segs, seg)
	}
	l.publishLocked(true)
}

// publishLocked assembles a fresh snapshot from the master state — the
// sealed segments plus an isolated view of the active builder — and
// publishes it with one atomic pointer swap. recal re-runs threshold
// calibration (approximate mode only) on the new snapshot before it
// goes live, so readers never see a snapshot whose calibration lags its
// contents.
func (l *Library) publishLocked(recal bool) {
	segs := make([]*segment, 0, len(l.segs)+1)
	segs = append(segs, l.segs...)
	if v := l.active.view(&l.params, l.refs); v != nil {
		segs = append(segs, v)
	}
	refs := l.refs[:len(l.refs):len(l.refs)]
	sn := newSnapshot(segs, refs, l.cal)
	if recal && l.params.Approx && sn.numBuckets() > 0 {
		sn.cal = l.calibrate(sn)
		l.cal = sn.cal
	}
	l.snap.Store(sn)
}

// Frozen reports whether Freeze has been called (the library serves
// searches). Frozen libraries still accept Add, Remove, and Compact.
func (l *Library) Frozen() bool { return l.snap.Load() != nil }

// BucketWindows returns the member windows of bucket i (shared slice; do
// not mutate). Windows of removed references are included; check
// Ref(wr.Ref).Seq != nil for liveness. An out-of-range index — e.g. a
// Candidate.Bucket held across a Compact that shrank the library —
// returns nil rather than panicking.
func (l *Library) BucketWindows(i int) []WindowRef {
	if sn := l.snap.Load(); sn != nil {
		seg, li, ok := sn.locateOK(i)
		if !ok {
			return nil
		}
		return seg.windows(li)
	}
	if i < 0 || i >= l.active.numBuckets() {
		return nil
	}
	return l.active.windows(i)
}

// BucketVector returns the sealed hypervector of bucket i (shared; do
// not mutate — and do not retain across Close on a mapped library, the
// words alias the file mapping). It panics if the library is not
// frozen — the sealed view only exists after Freeze — but an
// out-of-range index, like a stale bucket index held across a Compact,
// returns nil rather than panicking.
func (l *Library) BucketVector(i int) *hdc.HV {
	sn := l.snap.Load()
	if sn == nil {
		panic("core: BucketVector before Freeze")
	}
	if !l.beginRead() {
		return nil
	}
	defer l.endRead()
	seg, li, ok := sn.locateOK(i)
	if !ok {
		return nil
	}
	return seg.vector(li)
}

// MemoryFootprint returns the library's resident search-store size in
// bytes: the packed probe arenas (sealed mode: D/8 bytes per bucket),
// any retained raw counters (unsealed mode: D·4 bytes per bucket), and
// the window metadata (8 bytes per memorized window).
func (l *Library) MemoryFootprint() int64 {
	if sn := l.snap.Load(); sn != nil {
		return sn.footprintBytes(l.params.Dim)
	}
	return l.active.footprintBytes(l.params.Dim)
}

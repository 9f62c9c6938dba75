package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/genome"
	"repro/internal/mmapfile"
)

// ErrClosed is returned by operations on an index whose Close has been
// called (only mmap-backed indexes reject reads after Close — their
// arenas are unmapped — but mutations fail on any closed index).
var ErrClosed = errors.New("core: library is closed")

// Segment is one immutable sealed slice of an index, as the engine sees
// it: enough to size views and the stats surface. The storage behind it
// belongs to the backend; which references it holds, which of them are
// removed (Member), and which bytes of the file mapping it aliases are
// the engine's account.
type Segment interface {
	// NumBuckets is the number of candidate units scanned per probe
	// (HDC buckets, bit-sliced reference columns).
	NumBuckets() int
	// MemoryBytes is the segment's resident search-store size.
	MemoryBytes() int64
}

// Builder is a kernel's mutable segment under construction. The engine
// owns it and calls it only with its lock held: live ingest appends to
// the active builder, sealing takes its view and starts a fresh one,
// and compaction appends a segment's live references, in order, to a
// fresh one.
type Builder interface {
	// Append memorizes every stride-aligned window of rec, whose
	// reference index is ref, and returns the builder's bucket count.
	Append(ref int32, rec genome.Record) int
	// View returns an immutable, isolated view of the builder as a
	// segment, or nil if it is empty; later Appends never change it.
	View() Segment
}

// Member is one reference memorized in a segment: its index in the
// reference table and its window count. A loader reports each sealed
// segment's members to Restore in the order they were memorized, which
// is the order compaction memorizes the live ones again.
type Member struct {
	Ref     int32
	Windows int
}

// Window names one query window: Kernel.Window bases of Seq from Off.
type Window struct {
	Seq *genome.Sequence
	Off int
}

// Kernel is the backend half of an Engine: the read primitive, the
// builder the engine memorizes references into, the geometry the
// derived probes need, and the bytes a save stores. Everything else —
// the reference table, each segment's members and mapped bytes, seal
// and compaction policy, snapshot publishing, reader accounting, the
// file, counters, and every probe built on the primitive — is the
// engine's, written once.
type Kernel struct {
	// Window is the query window length in bases. Stride is the spacing
	// of reference window starts: a lookup tries the first
	// min(Stride, len−Window+1) alignments of its pattern.
	Window, Stride int
	// SealThreshold is the default active-builder bucket count at which
	// live ingest seals the builder into an immutable segment.
	SealThreshold int
	// Tag is the backend's v3 container tag (RegisterBackend).
	Tag uint32

	// Builder returns an empty builder.
	Builder func() Builder
	// Describe fills the backend's IndexInfo fields — geometry,
	// Threshold, the sketch fields — from v, the view the engine filled
	// the rest from; info.Frozen says whether v is published (annotated)
	// or the unannotated view Freeze would publish.
	Describe func(v *View, info *IndexInfo)
	// Annotate, if set, derives the kernel's per-view state (typed
	// segment list, calibration) from a fully assembled view; the engine
	// stores the result in View.Aux before the view goes live.
	Annotate func(v *View) any

	// Probe is the read primitive. For each window j of a block of at
	// most BlockWidth it encodes or hashes wins[j], collects candidates
	// across v's segments, verifies them against v.Refs — a removed
	// reference's windows stay in the storage, its Seq is nil — appends
	// the matches (QueryOff = wins[j].Off) to out[j].Matches in the
	// kernel's scan order, and adds the work to out[j].Stats. Scratch is
	// the kernel's own, pooled.
	Probe func(v *View, wins []Window, out []*BatchResult)
	// Save lists v's segments as container arenas, in scan order, and
	// returns the writer of the backend's meta payload, which the
	// backend's registered parser reads back (WriteContainerV3).
	Save func(v *View) ([]ContainerSegment, func(*SectionWriter))
}

// View is one immutable, atomically published state of an index: the
// sealed segments plus an isolated view of the active builder, and the
// reference table in force. Readers load the current view once per
// operation and never lock; mutations assemble the next view off-line
// and swap the pointer.
type View struct {
	Segs []Segment       // scan order; never shared with the engine's master list
	Refs []genome.Record // length-capped; removed references have Seq == nil
	Aux  any             // the kernel's annotation (Kernel.Annotate)

	info   []SegmentInfo // per segment, in scan order
	nBkts  int
	total  int // all member windows, tombstoned included
	tombs  int
	bytes  int64
	mapped int // segments whose arenas alias the file mapping
}

// add appends seg, whose members the engine accounts in lg, to the
// view; mapped says its arena aliases the file mapping.
func (v *View) add(seg Segment, lg *ledger, mapped bool) {
	si := SegmentInfo{Buckets: seg.NumBuckets(), Windows: lg.total, Tombstones: lg.tombs}
	v.Segs = append(v.Segs, seg)
	v.info = append(v.info, si)
	v.nBkts += si.Buckets
	v.total += si.Windows
	v.tombs += si.Tombstones
	v.bytes += seg.MemoryBytes()
	if mapped {
		v.mapped++
	}
}

// ledger is the engine's account of one segment or of the active
// builder: its members in the order they were memorized, all their
// windows, and those of members since removed. A reference's windows
// never straddle two ledgers, so removing it tombstones them together,
// and compacting a ledger is appending its live members again.
type ledger struct {
	members []Member
	total   int
	tombs   int
}

// add books m, whose reference is already removed if dead.
func (lg *ledger) add(m Member, dead bool) {
	lg.members = append(lg.members, m)
	lg.total += m.Windows
	if dead {
		lg.tombs += m.Windows
	}
}

// tombstone books reference ref's windows as removed.
func (lg *ledger) tombstone(ref int32) {
	for _, m := range lg.members {
		if m.Ref == ref {
			lg.tombs += m.Windows
		}
	}
}

// due reports whether compaction at minRatio rewrites the ledger's
// segment: it holds tombstones, at least minRatio of its windows.
func (lg *ledger) due(minRatio float64) bool {
	return lg.tombs > 0 && tombRatio(lg.total, lg.tombs) >= minRatio
}

// sealedSeg is one sealed segment, its ledger, and the bytes of the file
// mapping its arena aliases (mapLen 0: the segment is on the heap).
type sealedSeg struct {
	seg            Segment
	lg             ledger
	mapOff, mapLen int
}

// Engine is the segment engine every index backend embeds: immutable
// sealed segments plus one mutable active builder, with every read
// going through an atomically published View. Build with Add, then
// Freeze; after Freeze the index keeps accepting Add, Remove and
// Compact concurrently with searches — each mutation assembles the next
// view under the mutation lock and publishes it with one pointer swap,
// so readers never lock and never observe a half-applied change. The
// active builder auto-seals at SetSealThreshold buckets, and Compact
// rewrites segments whose tombstone fraction crossed a trigger.
type Engine struct {
	k Kernel

	// snap is the current read view. Nil until Freeze; every read loads
	// it exactly once per operation.
	snap atomic.Pointer[View]

	// mu serializes mutations. The master state below is only touched
	// with mu held.
	mu         sync.Mutex
	refs       []genome.Record // master reference table (removed ⇒ Seq nil)
	sealedSegs []sealedSeg     // sealed segments, in creation order; only this file touches it
	active     Builder         // the mutable tail
	activeLg   ledger          // the active builder's members; only this file touches it
	activeBkts int             // the builder's bucket count

	sealThreshold int     // builder bucket count that triggers auto-seal
	autoCompact   float64 // tombstone ratio that triggers compaction on Remove; 0 = manual

	pool sync.Pool // *probeScratch
	ctr  libCounters

	// errShort is the invalid-pattern error, precomputed so the block
	// path reports it without formatting.
	errShort error

	// mapped marks an index whose sealed arenas alias a read-only file
	// mapping. Restore sets it before the first view is published and
	// nothing changes it after, so the read paths branch on it without
	// synchronization; heap indexes skip the reader accounting entirely
	// — their storage never disappears.
	mapped bool
	// mapping is the backing file mapping; guarded by mu (Close nils it).
	mapping *mmapfile.Mapping
	// readers counts in-flight reads of a mapped index; Close unmaps
	// only after it drains to zero.
	readers atomic.Int64
	// closed is set by Close; mapped reads and all mutations fail once
	// it is observed.
	closed atomic.Bool
}

// NewEngine returns an empty, unfrozen engine over k.
func NewEngine(k Kernel) *Engine {
	return &Engine{
		k:             k,
		active:        k.Builder(),
		sealThreshold: k.SealThreshold,
		errShort:      fmt.Errorf("core: pattern shorter than window %d", k.Window),
	}
}

// Restore installs a deserialized state — the reference table and the
// sealed segments, each cut from arenas[k] with its members as the file
// recorded them — and publishes it annotated by the loader's annotate
// rather than Kernel.Annotate: loading must not re-derive what the file
// recorded. A non-nil m is the file mapping the arenas alias: the
// engine owns it from here, books each segment's byte range in it,
// counts reads so Close can drain them, and Close unmaps it.
func (e *Engine) Restore(refs []genome.Record, segs []Segment, members [][]Member, arenas []ContainerSegment, m *mmapfile.Mapping, annotate func(*View) any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refs = refs
	e.sealedSegs = make([]sealedSeg, len(segs))
	for k, seg := range segs {
		s := &e.sealedSegs[k]
		s.seg = seg
		for _, mb := range members[k] {
			s.lg.add(mb, refs[mb.Ref].Seq == nil)
		}
		if m != nil {
			s.mapOff, s.mapLen = int(arenas[k].FileOff), 8*len(arenas[k].Words)
		}
	}
	e.mapped, e.mapping = m != nil, m
	v := e.assembleLocked()
	v.Aux = annotate(v)
	e.snap.Store(v)
}

// beginRead opens a read section: every operation that touches segment
// arenas brackets itself so Close can drain in-flight readers before
// unmapping. Heap-backed indexes pay a single predictable branch. A
// false return means the index is closed and the arenas are (or are
// about to be) unmapped; the caller must fail with ErrClosed without
// touching storage.
//
//biohd:hotpath
func (e *Engine) beginRead() bool {
	if !e.mapped {
		return true
	}
	e.readers.Add(1)
	// Increment before the closed check: Close sets closed first, then
	// waits for readers to drain, so either it observes our increment
	// and waits for endRead, or we observe closed and back out.
	if e.closed.Load() {
		e.readers.Add(-1)
		return false
	}
	return true
}

// endRead closes a read section opened by beginRead.
//
//biohd:hotpath
func (e *Engine) endRead() {
	if e.mapped {
		e.readers.Add(-1)
	}
}

// Pin opens a read section on the current view for a backend's own
// entry points (serialization, raw probes); op names the caller in the
// not-frozen error. Every successful Pin needs an Unpin.
//
//biohd:hotpath
func (e *Engine) Pin(op string) (*View, error) {
	v := e.snap.Load()
	if v == nil {
		return nil, fmt.Errorf("core: %s before Freeze", op)
	}
	if !e.beginRead() {
		return nil, ErrClosed
	}
	return v, nil
}

// Unpin closes the read section opened by Pin.
//
//biohd:hotpath
func (e *Engine) Unpin() { e.endRead() }

// WriteToV3 saves the current view as a v3 container of the kernel's
// tag, meta payload and arenas; only a frozen index can be saved. It
// returns the file size; ReadIndex and OpenLibraryFile read it back.
func (e *Engine) WriteToV3(w io.Writer) (int64, error) {
	v, err := e.Pin("WriteToV3")
	if err != nil {
		return 0, err
	}
	defer e.Unpin()
	segs, meta := e.k.Save(v)
	return WriteContainerV3(w, e.k.Tag, meta, segs)
}

// Close shuts the index down. For a mapped index it waits for in-flight
// reads to drain, then unmaps the backing file — after which any
// retained arena alias is invalid. Heap indexes just stop accepting
// mutations and reads keep working; either way Close is idempotent and
// further mutations return ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Swap(true) || e.mapping == nil {
		return nil
	}
	// Drain: new readers observe closed and back out; existing ones
	// finish their scan and decrement. Scans are short (no blocking
	// operations inside a read section), so yielding is enough.
	for e.readers.Load() != 0 {
		runtime.Gosched()
	}
	err := e.mapping.Close()
	e.mapping = nil
	return err
}

// SetSealThreshold sets the active-builder bucket count at which a
// post-freeze Add seals the builder into a new immutable segment
// (n ≤ 0 restores the backend's default).
func (e *Engine) SetSealThreshold(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n <= 0 {
		n = e.k.SealThreshold
	}
	e.sealThreshold = n
}

// SetAutoCompact sets the tombstone ratio at which Remove triggers an
// automatic Compact of the affected segments; ratio ≤ 0 (the default)
// keeps compaction manual.
func (e *Engine) SetAutoCompact(ratio float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.autoCompact = ratio
}

// Describe is the one stats read: every field comes from a single load
// of the current view — or, before Freeze, from the view Freeze would
// publish — so the counts in one reply always belong together. The
// kernel's Describe hook fills the backend's fields from that same view.
// ResidentBytes is the one field that costs a system call (mincore over
// the mapping of a mapped index).
func (e *Engine) Describe() IndexInfo {
	info := e.describeView()
	info.ResidentBytes = info.MemoryBytes
	if e.mapped {
		info.MappedBytes, info.ResidentBytes = e.mappingBytes()
	}
	return info
}

// describeView is Describe without the mapping's sizes. It is the only
// function that loads the view for a stats read.
func (e *Engine) describeView() IndexInfo {
	v, frozen := e.current()
	info := IndexInfo{
		Frozen: frozen, References: len(v.Refs), Windows: v.total - v.tombs, Buckets: v.nBkts,
		TombstoneRatio: tombRatio(v.total, v.tombs), MemoryBytes: v.bytes, Mapped: e.mapped,
	}
	if frozen {
		info.Segments = len(v.Segs)
	}
	e.k.Describe(v, &info)
	return info
}

// current returns the published view, or before Freeze the unannotated
// view Freeze would publish.
func (e *Engine) current() (v *View, frozen bool) {
	if v = e.snap.Load(); v != nil {
		return v, true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.assembleLocked(), false
}

// mappingBytes returns the size of the backing file mapping and how much
// of it is resident — mincore; where that is unavailable, conservatively
// the whole mapping — or zeros once Close has unmapped it.
func (e *Engine) mappingBytes() (mapped, resident int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mapping == nil {
		return 0, 0
	}
	mapped = int64(e.mapping.Len())
	n, err := e.mapping.Resident(0, e.mapping.Len())
	if err != nil {
		return mapped, mapped
	}
	return mapped, n
}

// NumRefs, NumWindows, NumSegments, TombstoneRatio, MemoryFootprint,
// Mapped, MappedBytes and ResidentBytes are single IndexInfo fields, kept
// for the benchmark harness; everything else reads Describe, except a
// mutation's ID lookup, which reads NumRefs to skip the mincore.
func (e *Engine) NumRefs() int            { return e.describeView().References }
func (e *Engine) NumWindows() int         { return e.describeView().Windows }
func (e *Engine) NumSegments() int        { return e.describeView().Segments }
func (e *Engine) TombstoneRatio() float64 { return e.describeView().TombstoneRatio }
func (e *Engine) MemoryFootprint() int64  { return e.describeView().MemoryBytes }
func (e *Engine) Mapped() bool            { return e.mapped }
func (e *Engine) MappedBytes() int64      { return e.Describe().MappedBytes }
func (e *Engine) ResidentBytes() int64    { return e.Describe().ResidentBytes }

// Ref returns the i-th reference record. A removed reference has a nil
// Seq and a " (removed)" description suffix.
func (e *Engine) Ref(i int) genome.Record {
	if v := e.snap.Load(); v != nil {
		return v.Refs[i]
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.refs[i]
}

func tombRatio(total, tombs int) float64 {
	if total == 0 {
		return 0
	}
	return float64(tombs) / float64(total)
}

// SegmentInfo describes one segment of the current view.
type SegmentInfo struct {
	Buckets    int // buckets in the segment
	Windows    int // member windows, including tombstoned ones
	Tombstones int // member windows whose reference was removed
}

// Segments describes the current view's segments in scan order.
func (e *Engine) Segments() []SegmentInfo {
	v := e.snap.Load()
	if v == nil {
		return nil
	}
	return slices.Clone(v.info)
}

// Add memorizes every stride-aligned window of rec. References shorter
// than one window are rejected. Before Freeze, Add builds the first
// segment; after Freeze, Add appends to the active builder and
// publishes a new view, so the reference becomes searchable
// immediately and concurrently running lookups are never disturbed.
// The builder auto-seals at the SetSealThreshold bucket count, at Add
// granularity — a reference's windows never straddle a seal.
func (e *Engine) Add(rec genome.Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if rec.Seq == nil || rec.Seq.Len() < e.k.Window {
		return fmt.Errorf("core: reference %q shorter than window %d", rec.ID, e.k.Window)
	}
	ref := int32(len(e.refs))
	e.refs = append(e.refs, rec)
	e.activeBkts = e.appendLocked(e.active, &e.activeLg, ref)
	if e.snap.Load() == nil {
		return nil // still building; Freeze publishes the first view
	}
	e.maybeSealLocked()
	e.publishLocked()
	return nil
}

// appendLocked memorizes live reference ref into b, books it in lg, and
// returns b's bucket count.
func (e *Engine) appendLocked(b Builder, lg *ledger, ref int32) int {
	rec := e.refs[ref]
	lg.add(Member{Ref: ref, Windows: (rec.Seq.Len()-e.k.Window)/e.k.Stride + 1}, false)
	return b.Append(ref, rec)
}

// sealActiveLocked turns the active builder into an immutable segment
// and starts a fresh one.
func (e *Engine) sealActiveLocked() bool {
	seg := e.active.View()
	if seg == nil {
		return false
	}
	e.sealedSegs = append(e.sealedSegs, sealedSeg{seg: seg, lg: e.activeLg})
	e.active, e.activeLg, e.activeBkts = e.k.Builder(), ledger{}, 0
	return true
}

// maybeSealLocked seals the active builder once it has reached the
// auto-seal threshold.
func (e *Engine) maybeSealLocked() {
	if e.activeBkts >= e.sealThreshold && e.sealActiveLocked() {
		e.ctr.segmentSeals.Add(1)
	}
}

// Freeze publishes the first view: what has been built so far seals
// into the first immutable segment and the index becomes safe for
// concurrent search — and keeps accepting Add, Remove and Compact.
// Freezing an empty index is a no-op that leaves it unfrozen.
func (e *Engine) Freeze() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() || e.snap.Load() != nil || e.activeBkts == 0 {
		return
	}
	e.sealActiveLocked()
	e.publishLocked()
}

// assembleLocked builds a view of the master state. It always owns a
// fresh segment slice: Compact replaces the master list while lock-free
// readers iterate published views, and the ledgers change under them.
func (e *Engine) assembleLocked() *View {
	n := len(e.sealedSegs) + 1
	v := &View{Segs: make([]Segment, 0, n), Refs: e.refs[:len(e.refs):len(e.refs)], info: make([]SegmentInfo, 0, n)}
	for i := range e.sealedSegs {
		s := &e.sealedSegs[i]
		v.add(s.seg, &s.lg, s.mapLen > 0)
	}
	if av := e.active.View(); av != nil {
		v.add(av, &e.activeLg, false)
	}
	return v
}

// publishLocked assembles a fresh view and publishes it with one atomic
// pointer swap. The kernel annotates the view before it goes live, so
// readers never see one whose annotation lags its contents.
func (e *Engine) publishLocked() {
	v := e.assembleLocked()
	if e.k.Annotate != nil {
		v.Aux = e.k.Annotate(v)
	}
	e.snap.Store(v)
}

// Remove deletes a reference from a frozen index by tombstoning it: the
// slot keeps its index but loses its sequence, every view published
// from here on skips the reference's windows at verify time, and the
// ledger that holds it counts them removed so Compact knows what is
// worth rewriting. Segment storage is left untouched — nothing a reader
// holds is ever written, the change lands as a fresh view, and no
// kernel code runs.
//
// If SetAutoCompact is armed and the removal pushes a segment past the
// trigger ratio, the affected segments are compacted before Remove
// returns.
func (e *Engine) Remove(refIdx int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if e.snap.Load() == nil {
		return fmt.Errorf("core: Remove before Freeze")
	}
	if refIdx < 0 || refIdx >= len(e.refs) {
		return fmt.Errorf("core: reference %d out of range [0,%d)", refIdx, len(e.refs))
	}
	rec := e.refs[refIdx]
	if rec.Seq == nil {
		return fmt.Errorf("core: reference %d already removed", refIdx)
	}
	// Copy-on-write: published views hold the old table, so the master
	// table is replaced, never written in place.
	refs := append([]genome.Record(nil), e.refs...)
	rec.Seq = nil
	rec.Description += " (removed)" // tombstone keeps the identifier
	refs[refIdx] = rec
	e.refs = refs
	for i := range e.sealedSegs {
		e.sealedSegs[i].lg.tombstone(int32(refIdx))
	}
	e.activeLg.tombstone(int32(refIdx))
	if e.autoCompact > 0 && e.compactLocked(e.autoCompact) > 0 {
		return nil // compaction already published the new view
	}
	e.publishLocked()
	return nil
}

// Compact rewrites every segment whose tombstone ratio is at least
// minRatio (minRatio ≤ 0 rewrites any segment holding tombstones): the
// live references are memorized again, removed windows vanish, and
// segments left empty are dropped. The rewrite happens off-line under
// the mutation lock and lands as one view swap, so concurrent lookups
// keep scanning the old segments until the new ones are live. It
// returns the number of segments rewritten (including the active
// builder, if it qualified).
func (e *Engine) Compact(minRatio float64) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return 0, ErrClosed
	}
	if e.snap.Load() == nil {
		return 0, fmt.Errorf("core: Compact before Freeze")
	}
	return e.compactLocked(minRatio), nil
}

// rebuildLocked is compaction, for a sealed segment and the active
// builder alike: a fresh builder with lg's live members appended in
// order, their ledger, and the builder's bucket count.
func (e *Engine) rebuildLocked(lg *ledger) (Builder, ledger, int) {
	b, nl, bkts := e.k.Builder(), ledger{}, 0
	for _, m := range lg.members {
		if e.refs[m.Ref].Seq != nil {
			bkts = e.appendLocked(b, &nl, m.Ref)
		}
	}
	return b, nl, bkts
}

func (e *Engine) compactLocked(minRatio float64) int {
	rewritten := 0
	segs := e.sealedSegs[:0:0]
	var retired []sealedSeg
	for _, s := range e.sealedSegs {
		if !s.lg.due(minRatio) {
			segs = append(segs, s)
			continue
		}
		rewritten++
		b, lg, _ := e.rebuildLocked(&s.lg)
		if seg := b.View(); seg != nil {
			segs = append(segs, sealedSeg{seg: seg, lg: lg})
		}
		retired = append(retired, s)
	}
	// The active builder compacts too, and stays the (mutable) builder.
	if e.activeLg.due(minRatio) {
		rewritten++
		e.active, e.activeLg, e.activeBkts = e.rebuildLocked(&e.activeLg)
	}
	if rewritten == 0 {
		return 0
	}
	e.sealedSegs = segs
	e.ctr.compactions.Add(int64(rewritten))
	e.publishLocked()
	// The rewritten replacements live on the heap; tell the kernel the
	// retired segments' file pages are cold. Advisory only, so readers
	// still holding a pre-compaction view just refault the pages from
	// the file if they touch them.
	if e.mapping != nil {
		for _, s := range retired {
			if s.mapLen > 0 {
				//lint:ignore errcheck paging hints are best-effort
				e.mapping.Advise(s.mapOff, s.mapLen, mmapfile.AdviseDontNeed)
			}
		}
	}
	return rewritten
}

// CountScans adds a kernel's bucket (or bit-row) scans to the
// cumulative counters. A zero delta is skipped: every add is a locked
// read-modify-write on a line all lookup goroutines write.
//
//biohd:hotpath
func (e *Engine) CountScans(bucketProbes int64) {
	if bucketProbes != 0 {
		e.ctr.bucketProbes.Add(bucketProbes)
	}
}

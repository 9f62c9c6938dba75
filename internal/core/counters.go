package core

import "sync/atomic"

// Counters is a point-in-time snapshot of a library's cumulative
// operational counters, taken with Library.Counters. Unlike Stats —
// which models the work one query *would* cost the PIM hardware and is
// deterministic per query — these count what the software actually did
// across the library's lifetime, including shortcuts the hardware model
// ignores. They exist for observability (the HTTP /metrics endpoint
// exposes them as Prometheus counters), not for experiments.
type Counters struct {
	// BucketProbes counts query-window/bucket probe scans across every
	// lookup served by this library: the buckets each probe scores —
	// an exact window's group and the spill in a routed library
	// (DESIGN §8.6), every bucket otherwise.
	BucketProbes int64
	// EarlyAbandons counts sealed-arena rows a probe scanned that did
	// not become candidates — dropped by the sketch stage or by the
	// full-row Hamming bound.
	EarlyAbandons int64
	// SketchRows counts rows the cascade's sketch stage scanned, and
	// SketchSurvivors how many of them it passed on to the full-row
	// stage; their ratio is the observed counterpart of the model's
	// predicted survivor ratio (IndexInfo.SketchSurvivorRatio). Both stay
	// zero while no view has a sketch stage.
	SketchRows      int64
	SketchSurvivors int64
	// BatchCancellations counts lookups through Search cut short by
	// context cancellation or deadline expiry.
	BatchCancellations int64
	// BlockedProbes counts multi-query probe blocks executed — arena
	// passes that served a whole query block at once (ProbeMulti,
	// LookupBlock and every Search).
	BlockedProbes int64
	// BlockedWindows counts query windows served through those blocks;
	// BlockedWindows / BlockedProbes is the realized mean block
	// occupancy (≤ bitvec.MaxMultiQueries).
	BlockedWindows int64
	// SegmentSeals counts active segments sealed into immutable ones by
	// post-freeze ingest reaching the auto-seal threshold.
	SegmentSeals int64
	// Compactions counts segments rewritten by Compact (manual or
	// auto-triggered), including active-segment rebuilds.
	Compactions int64
	// MappedScans counts segment scans served from segments whose
	// arenas alias the file mapping (format v3 opened with MapArena):
	// one per segment per query window, on every backend. Together with
	// HeapScans it shows which storage tier the probe load is hitting.
	MappedScans int64
	// HeapScans counts the same for heap-resident segments (including
	// the active segment's view, which is always heap-built, and every
	// segment compaction rewrote).
	HeapScans int64
}

// libCounters is the live atomic form embedded in Engine. Writers
// accumulate locally and publish with one atomic add per probe/range,
// so the hot kernel loop stays free of synchronization.
type libCounters struct {
	bucketProbes       atomic.Int64
	earlyAbandons      atomic.Int64
	sketchRows         atomic.Int64
	sketchSurvivors    atomic.Int64
	batchCancellations atomic.Int64
	blockedProbes      atomic.Int64
	blockedWindows     atomic.Int64
	segmentSeals       atomic.Int64
	compactions        atomic.Int64
	mappedScans        atomic.Int64
	heapScans          atomic.Int64
}

// Counters returns a snapshot of the index's cumulative operational
// counters. Safe to call concurrently with lookups; the fields are
// read independently, so a snapshot taken mid-lookup may be slightly
// torn across fields — each field is itself consistent and monotonic.
func (e *Engine) Counters() Counters {
	return Counters{
		BucketProbes:       e.ctr.bucketProbes.Load(),
		EarlyAbandons:      e.ctr.earlyAbandons.Load(),
		SketchRows:         e.ctr.sketchRows.Load(),
		SketchSurvivors:    e.ctr.sketchSurvivors.Load(),
		BatchCancellations: e.ctr.batchCancellations.Load(),
		BlockedProbes:      e.ctr.blockedProbes.Load(),
		BlockedWindows:     e.ctr.blockedWindows.Load(),
		SegmentSeals:       e.ctr.segmentSeals.Load(),
		Compactions:        e.ctr.compactions.Load(),
		MappedScans:        e.ctr.mappedScans.Load(),
		HeapScans:          e.ctr.heapScans.Load(),
	}
}

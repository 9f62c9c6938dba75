package core

import (
	"context"
	"io"

	"repro/internal/genome"
)

// Backend names, as reported by Index.Describe and surfaced in
// /v1/stats and the backend-labeled /metrics series. BackendHDC is the
// paper's hyperdimensional library (the zero tag in the v3 container);
// every backend, it included, registers its tag and name via
// RegisterBackend.
const BackendHDC = "hdc"

// IndexInfo identifies an index backend and the geometry every backend
// shares: the window length queried, the stride of reference window
// starts, and whether (and how far) search tolerates substitutions.
// Backend-specific parameters (hypervector dimension, Bloom geometry)
// stay behind the backend's own Params type; Dim, Capacity and the
// sketch fields are zero for backends they do not apply to.
type IndexInfo struct {
	Backend   string // "hdc", "cobs", ...
	Dim       int    // hypervector dimension (HDC; 0 otherwise)
	Window    int    // window / w-mer length in bases
	Stride    int    // reference window stride
	Capacity  int    // windows bundled per bucket (HDC; 0 otherwise)
	Approx    bool   // search tolerates substitutions
	Tolerance int    // per-window substitution tolerance when Approx

	// The probe cascade (HDC): SketchWords is how many words of each
	// Dim/64-word row the first stage reads — the whole row when the
	// model offers no prefix — SketchBytes the sketch planes resident
	// beside the current view's arenas, and SketchSurvivorRatio the
	// share of rows the model predicts the current view's first stage
	// passes on to the full-row stage (it follows the view's threshold;
	// 0 before Freeze and for a view that scans whole rows), the number
	// Counters.SketchSurvivors / SketchRows should track.
	SketchWords         int
	SketchBytes         int64
	SketchSurvivorRatio float64
}

// Index is the backend-agnostic contract of a searchable reference
// collection: the probe paths (single lookup, blocked lookup, long-read
// mapping, classification, batch), the build/seal/compact lifecycle,
// the stats surface the server exports, and v3 serialization. The HDC
// segmented Library implements it unchanged; alternate backends (the
// COBS-style bit-sliced signature index in internal/cobs) implement the
// same semantics over their own storage. Every layer above internal/core
// — the coalescer, the transport-neutral exec layer, the HTTP and wire
// handlers, and the CLI — talks only to this interface.
//
// Concurrency contract: Frozen indexes serve all read methods
// concurrently with each other and with mutations; mutations publish
// atomically (readers never observe a half-applied change) and are
// serialized internally. Close drains in-flight readers before
// releasing storage.
type Index interface {
	// Describe identifies the backend and its shared geometry.
	Describe() IndexInfo
	// Frozen reports whether Freeze has been called (the index serves
	// searches). Frozen indexes still accept Add, Remove, and Compact.
	Frozen() bool
	// Threshold returns the operating decision threshold of the
	// backend's candidate stage, in backend-specific units.
	Threshold() float64

	// Stats surface (the /v1/stats and /metrics contract).
	NumRefs() int
	NumWindows() int
	NumBuckets() int
	NumSegments() int
	TombstoneRatio() float64
	MemoryFootprint() int64
	Mapped() bool
	MappedBytes() int64
	ResidentBytes() int64
	Ref(i int) genome.Record
	Counters() Counters

	// Probe paths. Per-method semantics (alignments tried, match order,
	// vote aggregation) are documented on the Library methods; every
	// backend matches them so transports can switch backends without
	// changing response shapes.
	Lookup(pattern *genome.Sequence) ([]Match, Stats, error)
	LookupBothStrands(pattern *genome.Sequence) ([]StrandedMatch, Stats, error)
	LookupLong(query *genome.Sequence, minFrac float64) ([]RefMatch, Stats, error)
	Classify(query *genome.Sequence, minFrac float64) (RefMatch, Stats, error)
	ClassifyBothStrands(read *genome.Sequence, minFrac float64) (RefMatch, Strand, Stats, error)
	LookupBatchContext(ctx context.Context, patterns []*genome.Sequence, workers int) ([]BatchResult, Stats, error)
	// LookupBlock is the blocked-probe contract: one caller-assembled
	// block of at most BlockWidth patterns, per-pattern identical to
	// Lookup. It is the executor the cross-request coalescer drives.
	LookupBlock(patterns []*genome.Sequence, results []BatchResult) error

	// Build / seal / compact lifecycle.
	Add(rec genome.Record) error
	Remove(refIdx int) error
	Compact(minRatio float64) (int, error)
	Freeze()
	SetSealThreshold(n int)
	SetAutoCompact(ratio float64)
	Close() error

	// WriteToV3 serializes the index's current snapshot into the v3
	// container with the backend's tag; ReadIndex/OpenLibraryFile
	// round-trip it.
	WriteToV3(w io.Writer) (int64, error)
}

// Describe identifies the HDC backend and its geometry.
func (l *Library) Describe() IndexInfo {
	info := IndexInfo{
		Backend:   BackendHDC,
		Dim:       l.params.Dim,
		Window:    l.params.Window,
		Stride:    l.params.Stride,
		Capacity:  l.params.Capacity,
		Approx:    l.params.Approx,
		Tolerance: l.params.MutTolerance,

		SketchWords: l.sketchWords,
	}
	if v := l.snap.Load(); v != nil {
		sn := hdcOf(v)
		info.SketchBytes = sn.sketchBytes
		info.SketchSurvivorRatio = sn.plan.survive
	}
	return info
}

// The HDC library is the reference implementation of the contract.
var _ Index = (*Library)(nil)

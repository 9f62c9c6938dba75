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

// IndexInfo is one stats read of an index: backend and geometry, the
// shape and storage of the view in force, and the model's numbers for
// that view. Engine.Describe fills the shape and storage fields and the
// backend's Kernel.Describe the rest, all from one load of the view, so
// no IndexInfo mixes two generations. Dim, Capacity and the sketch
// fields are zero for backends they do not apply to.
type IndexInfo struct {
	Backend   string // "hdc", "cobs", ...
	Dim       int    // hypervector dimension (HDC; 0 otherwise)
	Window    int    // window / w-mer length in bases
	Stride    int    // reference window stride
	Capacity  int    // windows bundled per bucket (HDC; 0 otherwise)
	Approx    bool   // search tolerates substitutions
	Tolerance int    // per-window substitution tolerance when Approx

	// Frozen says Freeze has been called. References counts reference
	// slots, removed ones included; Windows the live memorized windows;
	// Buckets the units a probe scans (HDC buckets, bit-sliced columns);
	// Segments the view's segments, active builder included, 0 before
	// Freeze.
	Frozen                                 bool
	References, Windows, Buckets, Segments int
	// TombstoneRatio is the share of memorized windows whose reference
	// was removed but not yet compacted away.
	TombstoneRatio float64
	// MemoryBytes is the search store's size. Mapped says the sealed
	// arenas alias a file mapping of MappedBytes bytes (0 on the heap or
	// once closed); ResidentBytes is the store in RAM — mincore over the
	// mapping, or MemoryBytes on the heap.
	MemoryBytes   int64
	Mapped        bool
	MappedBytes   int64
	ResidentBytes int64

	// Threshold is the candidate stage's decision threshold in backend
	// units: HDC's calibrated (approximate) or model (exact) threshold of
	// the view, a-priori before Freeze; cobs' share of rows that must hit.
	Threshold float64
	// The probe cascade (HDC): RowWords is the stored row width (Dim/64,
	// or at one window a row the sketch's), SketchWords how many words
	// of each row the first stage reads — the whole row when the model
	// offers no prefix — SketchBytes the sketch planes resident beside
	// the view's arenas, and SketchSurvivorRatio the share of rows the
	// model predicts the view's first stage passes on (it follows the
	// view's threshold; 0 before Freeze and for a view that scans whole
	// rows), the number Counters.SketchSurvivors / SketchRows should track.
	RowWords            int
	SketchWords         int
	SketchBytes         int64
	SketchSurvivorRatio float64
}

// Index is the backend-agnostic contract of a searchable reference
// collection: one stats read, the probe paths, the build/seal/compact
// lifecycle, and v3 serialization. *Engine implements all of it; the
// HDC Library and the COBS-style bit-sliced index in internal/cobs
// embed an Engine and supply only its Kernel. Every layer above
// internal/core — the exec layer, the HTTP and wire handlers, and the
// CLI — talks only to this interface.
//
// Concurrency contract: Frozen indexes serve all read methods
// concurrently with each other and with mutations; mutations publish
// atomically (readers never observe a half-applied change) and are
// serialized internally. Close drains in-flight readers before
// releasing storage.
type Index interface {
	// Describe is the stats read (IndexInfo); /v1/stats, the wire STATS
	// frame, /metrics and the mutation responses are built from it. The
	// six getters after it are single fields of it, kept for the
	// benchmark harness (NumRefs also for ID lookups, without mincore).
	Describe() IndexInfo
	NumRefs() int
	NumWindows() int
	NumSegments() int
	TombstoneRatio() float64
	MemoryFootprint() int64
	Mapped() bool
	Ref(i int) genome.Record
	Counters() Counters

	// Search is the probe: every query shape, from one view, with the
	// same answers on every backend. LookupBlock runs one
	// caller-assembled block of at most BlockWidth patterns, per
	// pattern identical to Lookup: the exec layer's forward search.
	// Lookup and Classify (a forward Long Search's Best) stay for the
	// benchmark harness.
	Search(ctx context.Context, q Query, a *Answer) error
	LookupBlock(patterns []*genome.Sequence, results []BatchResult) error
	Lookup(pattern *genome.Sequence) ([]Match, Stats, error)
	Classify(query *genome.Sequence, minFrac float64) (RefMatch, Stats, error)

	// Build / seal / compact lifecycle.
	Add(rec genome.Record) error
	Remove(refIdx int) error
	Compact(minRatio float64) (int, error)
	Freeze()
	SetSealThreshold(n int)
	SetAutoCompact(ratio float64)
	Close() error

	// WriteToV3 serializes the index's current snapshot into the v3
	// container with the kernel's tag and bytes; ReadIndex and
	// OpenLibraryFile round-trip it.
	WriteToV3(w io.Writer) (int64, error)
}

// describe is Kernel.Describe: the HDC geometry, and the threshold and
// sketch numbers of v — its probe plan once published, the a-priori
// model at the builder's occupancy before Freeze.
func (l *Library) describe(v *View, info *IndexInfo) {
	info.Backend = BackendHDC
	info.Dim, info.Window, info.Stride = l.params.Dim, l.params.Window, l.params.Stride
	info.Capacity, info.Approx, info.Tolerance = l.params.Capacity, l.params.Approx, l.params.MutTolerance
	info.RowWords, info.SketchWords = l.rowWords, l.sketchWords
	if !info.Frozen {
		info.Threshold = l.threshold(newHDCView(v, Calibration{}).maxOccupancy(), v.nBkts)
		return
	}
	sn := hdcOf(v)
	info.Threshold = sn.plan.tau
	info.RowWords = max(info.RowWords, sn.rowWords)
	info.SketchBytes = sn.sketchBytes
	info.SketchSurvivorRatio = sn.plan.survive
}

// The engine implements the contract by itself, whatever its kernel.
var _ Index = (*Engine)(nil)

// Package cobs is the COBS-style bit-sliced signature backend of the
// core.Index contract: per-reference k-mer Bloom rows transposed into
// bit-sliced columns, the classical compact-signature alternative to
// BioHD's hyperdimensional library (Bingmann et al., "COBS: a Compact
// Bit-Sliced Signature Index").
//
// Every reference gets an identically shaped Bloom signature of
// RowBits bits over its w-mers (WindowHash, probed from PositionSeed).
// Sealing transposes a batch of signatures so bit
// position b of every signature lands in one contiguous row bitmap:
// row b, column j says "reference j's signature has bit b set". A
// query w-mer derives its Hashes probe positions and ANDs those rows —
// a few contiguous word scans over the arena, whatever the reference
// count — and the surviving columns are the candidate references,
// which are then verified against the actual sequences, so search is
// exact: Bloom false positives cost verification work, never wrong
// answers.
//
// The index is a kernel of core.Engine, which it embeds: the engine
// supplies the segmented lifecycle (active builder sealing into
// immutable segments, atomic snapshots, Remove tombstoning references,
// Compact rewriting segments), the stats surface and every derived
// probe, and the one v3 container writer; this package supplies the
// signature builder, the row-AND candidate stage, verification, and
// the bytes a save stores under its backend tag — the arenas and the
// meta payload its registered parser reads back — so
// ReadIndex/OpenLibraryFile round-trip both backends from one file
// format, on the heap or mapped in place.
package cobs

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
)

// defaultSealThreshold is how many reference columns the active
// builder accumulates before live ingest seals it into an immutable
// segment. Columns are references (not windows), so the default is
// lower than the HDC library's bucket threshold.
const defaultSealThreshold = 1024

// maxHashes caps the probe positions per w-mer; probe scratch sizes
// position arrays to it statically.
const maxHashes = 16

// maxRowBits caps the signature length (8 MiB of bits per reference) —
// a plausibility bound so a forged RowBits in an unverified container
// meta section cannot force a giant allocation.
const maxRowBits = 1 << 26

// Params configures a bit-sliced signature index.
type Params struct {
	// Window is the w-mer length indexed and queried (1..1024).
	Window int
	// RowBits is the signature length in bits — the number of bit-sliced
	// rows. Every reference's Bloom signature has this exact shape.
	// Must be a positive multiple of 64. Default 1 << 16.
	RowBits int
	// Hashes is the probe positions derived per w-mer (1..16).
	// Default 4.
	Hashes int
}

func (p *Params) applyDefaults() {
	if p.Window == 0 {
		p.Window = 32
	}
	if p.RowBits == 0 {
		p.RowBits = 1 << 16
	}
	if p.Hashes == 0 {
		p.Hashes = 4
	}
}

// ErrSizing marks rejected signature sizing parameters (out-of-range
// w-mer length, signature length or hash count). Callers branch on it
// with errors.Is; the wrapped message names the offending parameter.
var ErrSizing = errors.New("invalid Bloom sizing")

// Validate rejects out-of-range parameters with errors wrapping
// ErrSizing — a w-mer length in [1,1024], a signature length that is a
// positive multiple of 64 under a plausibility cap, and 1..maxHashes
// probes. It allocates nothing: the v3 loader runs it on unverified
// metadata before any checksum has been seen.
func (p Params) Validate() error {
	if p.Window <= 0 || p.Window > 1024 {
		return fmt.Errorf("cobs: w-mer length %d out of [1,1024]: %w", p.Window, ErrSizing)
	}
	if p.RowBits <= 0 || p.RowBits%64 != 0 || p.RowBits > maxRowBits {
		return fmt.Errorf("cobs: signature length %d must be a positive multiple of 64 up to %d: %w", p.RowBits, maxRowBits, ErrSizing)
	}
	if p.Hashes < 1 || p.Hashes > maxHashes {
		return fmt.Errorf("cobs: hash count %d out of [1,%d]: %w", p.Hashes, maxHashes, ErrSizing)
	}
	return nil
}

// Index is a bit-sliced signature index over a reference collection.
// It implements core.Index: the lifecycle, stats and probe methods are
// the embedded engine's; lock-free readers scan atomically published
// views while mutations serialize on the engine's lock, exactly the
// discipline of the HDC library.
type Index struct {
	*core.Engine

	params Params
	pool   sync.Pool // *probeScratch
}

// New creates an empty index.
func New(p Params) (*Index, error) {
	p.applyDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	x := &Index{params: p}
	// Stride is 1: every reference w-mer is inserted, so a single query
	// alignment has full sensitivity.
	x.Engine = core.NewEngine(core.Kernel{
		Window:        p.Window,
		Stride:        1,
		SealThreshold: defaultSealThreshold,
		Tag:           backendTag,
		Builder:       func() core.Builder { return &builder{params: &x.params} },
		Describe:      x.describe,
		Annotate:      annotate,
		Probe:         x.probeBlock,
		Save:          x.save,
	})
	return x, nil
}

// describe is Kernel.Describe: the shared geometry, and the
// candidate-stage threshold — the fraction of probe rows that must hit.
// The AND of all Hashes rows means 1.0; search is exact after
// verification.
func (x *Index) describe(_ *core.View, info *core.IndexInfo) {
	info.Backend, info.Window, info.Stride = BackendName, x.params.Window, 1
	info.Threshold = 1.0
}

package baseline

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/encoding"
	"repro/internal/genome"
	"repro/internal/hdc"
)

// WholeRefHDC is the GenieHD-style HDC comparator: one hypervector per
// reference sequence, formed by bundling *all* of the reference's window
// encodings into a single accumulator. Query membership is one dot
// product per reference.
//
// This is the design BioHD improves on: with tens of thousands of
// windows superposed in one vector, the per-member signal D drowns in
// Θ(√(N·D)) cross-noise once N ≳ D/z², so whole-reference encoding stops
// discriminating exactly where BioHD's capacity-bounded buckets (chosen
// by the statistical model) keep working. Experiment F14 measures the
// crossover.
type WholeRefHDC struct {
	enc  *encoding.Encoder
	accs []*hdc.Acc
	wins []int // windows bundled per reference
}

// NewWholeRefHDC creates the comparator with the given encoder geometry.
func NewWholeRefHDC(cfg encoding.Config) (*WholeRefHDC, error) {
	enc, err := encoding.New(cfg)
	if err != nil {
		return nil, err
	}
	return &WholeRefHDC{enc: enc}, nil
}

// Dim returns the hypervector dimensionality.
func (g *WholeRefHDC) Dim() int { return g.enc.Dim() }

// NumRefs returns the number of encoded references.
func (g *WholeRefHDC) NumRefs() int { return len(g.accs) }

// Add encodes every window of seq into one new reference hypervector.
func (g *WholeRefHDC) Add(seq *genome.Sequence) error {
	if seq.Len() < g.enc.Window() {
		return fmt.Errorf("baseline: sequence shorter than window %d", g.enc.Window())
	}
	acc := hdc.NewAcc(g.enc.Dim())
	hv := hdc.NewHV(g.enc.Dim())
	n := g.enc.NumWindows(seq.Len(), 1)
	for start := 0; start < n; start++ {
		g.enc.EncodeWindowExactInto(hv, seq, start)
		acc.Add(hv)
	}
	g.accs = append(g.accs, acc)
	g.wins = append(g.wins, n)
	return nil
}

// RefScore is one reference's similarity to a query window.
type RefScore struct {
	Ref   int
	Score float64 // dot of the query with the raw reference counters
	Z     float64 // score in units of the reference's noise sigma √(N·D)
}

// Query scores the window-length pattern against every reference and
// returns the references ordered by Z descending, plus the dot-product
// op count. A present window contributes a mean of D to its reference's
// raw counters; the decision quality is all in Z.
func (g *WholeRefHDC) Query(pattern *genome.Sequence) ([]RefScore, int, error) {
	if pattern.Len() < g.enc.Window() {
		return nil, 0, fmt.Errorf("baseline: pattern shorter than window %d", g.enc.Window())
	}
	hv := g.enc.EncodeWindowExact(pattern, 0)
	out := make([]RefScore, len(g.accs))
	for i, acc := range g.accs {
		score := float64(acc.DotAcc(hv))
		sigma := math.Sqrt(float64(g.wins[i]) * float64(g.enc.Dim()))
		out[i] = RefScore{Ref: i, Score: score, Z: score / sigma}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Z > out[b].Z })
	return out, len(g.accs), nil
}

// Contains reports whether any reference's Z exceeds the threshold.
func (g *WholeRefHDC) Contains(pattern *genome.Sequence, zThresh float64) (bool, int, error) {
	scores, ops, err := g.Query(pattern)
	if err != nil {
		return false, ops, err
	}
	return len(scores) > 0 && scores[0].Z >= zThresh, ops, nil
}

// MemoryFootprint returns the comparator's counter storage in bytes.
func (g *WholeRefHDC) MemoryFootprint() int64 {
	return int64(len(g.accs)) * int64(g.enc.Dim()) * 4
}

package genome

import (
	"fmt"

	"repro/internal/rng"
)

// EditOp is the kind of a single sequence edit.
type EditOp uint8

// Edit operation kinds.
const (
	EditSub EditOp = iota // substitution: base at Pos replaced by To
	EditIns               // insertion: To inserted before Pos
	EditDel               // deletion: base at Pos removed
)

// String returns a short name for the operation.
func (op EditOp) String() string {
	switch op {
	case EditSub:
		return "sub"
	case EditIns:
		return "ins"
	case EditDel:
		return "del"
	default:
		return fmt.Sprintf("EditOp(%d)", uint8(op))
	}
}

// Edit is one mutation applied to a source sequence. Pos is an offset in
// the *original* sequence coordinates.
type Edit struct {
	Op  EditOp
	Pos int
	To  Base // substituted or inserted base; unused for deletions
}

// MutationModel is a per-base stochastic edit model. Each source position
// independently suffers a substitution with probability SubRate or a
// deletion with probability DelRate, and an insertion occurs before each
// position with probability InsRate. Rates must be non-negative and sum
// to at most 1.
type MutationModel struct {
	SubRate float64
	InsRate float64
	DelRate float64
}

// Validate checks the model's rates.
func (m MutationModel) Validate() error {
	if m.SubRate < 0 || m.InsRate < 0 || m.DelRate < 0 {
		return fmt.Errorf("genome: negative mutation rate %+v", m)
	}
	if s := m.SubRate + m.InsRate + m.DelRate; s > 1 {
		return fmt.Errorf("genome: mutation rates sum to %v > 1", s)
	}
	return nil
}

// Mutate applies the model to seq using src and returns the mutated
// sequence together with the ground-truth edit list (original
// coordinates, in increasing position order).
func Mutate(seq *Sequence, m MutationModel, src *rng.Source) (*Sequence, []Edit, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	var out []Base
	var edits []Edit
	for i := 0; i < seq.Len(); i++ {
		if m.InsRate > 0 && src.Float64() < m.InsRate {
			ins := Base(src.Intn(AlphabetSize))
			out = append(out, ins)
			edits = append(edits, Edit{Op: EditIns, Pos: i, To: ins})
		}
		r := src.Float64()
		switch {
		case r < m.DelRate:
			edits = append(edits, Edit{Op: EditDel, Pos: i})
		case r < m.DelRate+m.SubRate:
			orig := seq.At(i)
			// Draw a base distinct from the original so every recorded
			// substitution is a real change.
			sub := Base((int(orig) + 1 + src.Intn(AlphabetSize-1)) % AlphabetSize)
			out = append(out, sub)
			edits = append(edits, Edit{Op: EditSub, Pos: i, To: sub})
		default:
			out = append(out, seq.At(i))
		}
	}
	return FromBases(out), edits, nil
}

// SubstituteExactly applies exactly k substitutions at distinct uniformly
// chosen positions and returns the mutated sequence plus the edits. It
// panics if k exceeds the sequence length. Used by experiments that sweep
// an exact mutation count rather than a rate.
func SubstituteExactly(seq *Sequence, k int, src *rng.Source) (*Sequence, []Edit) {
	if k < 0 || k > seq.Len() {
		panic(fmt.Sprintf("genome: cannot place %d substitutions in length %d", k, seq.Len()))
	}
	out := seq.Clone()
	positions := src.Perm(seq.Len())[:k]
	edits := make([]Edit, 0, k)
	for _, pos := range positions {
		orig := seq.At(pos)
		sub := Base((int(orig) + 1 + src.Intn(AlphabetSize-1)) % AlphabetSize)
		out.Set(pos, sub)
		edits = append(edits, Edit{Op: EditSub, Pos: pos, To: sub})
	}
	return out, edits
}

// ApplyEdits replays an edit list (as produced by Mutate, ordered by
// original position) against seq, reproducing the mutated sequence.
// It is the inverse check used in tests and in ground-truth bookkeeping.
func ApplyEdits(seq *Sequence, edits []Edit) (*Sequence, error) {
	var out []Base
	next := 0 // index into edits
	for i := 0; i <= seq.Len(); i++ {
		// Insertions recorded before position i.
		for next < len(edits) && edits[next].Pos == i && edits[next].Op == EditIns {
			out = append(out, edits[next].To)
			next++
		}
		if i == seq.Len() {
			break
		}
		switch {
		case next < len(edits) && edits[next].Pos == i && edits[next].Op == EditDel:
			next++
		case next < len(edits) && edits[next].Pos == i && edits[next].Op == EditSub:
			out = append(out, edits[next].To)
			next++
		default:
			out = append(out, seq.At(i))
		}
	}
	if next != len(edits) {
		return nil, fmt.Errorf("genome: %d edits not applied (mis-ordered or out of range)", len(edits)-next)
	}
	return FromBases(out), nil
}
